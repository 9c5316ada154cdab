package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/jointest"
	"simjoin/internal/obsv/trace"
)

// getTraces fetches and decodes a daemon's /debug/traces.
func getTraces(t *testing.T, base string) []trace.TraceData {
	t.Helper()
	var out []trace.TraceData
	if err := json.Unmarshal([]byte(getText(t, base+"/debug/traces")), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// traceWithRoot returns the first trace whose root span has the given
// name.
func traceWithRoot(traces []trace.TraceData, name string) (trace.TraceData, bool) {
	for _, td := range traces {
		if root, ok := td.Root(); ok && root.Name == name {
			return td, true
		}
	}
	return trace.TraceData{}, false
}

// TestClusterTracePropagation is the tentpole's end-to-end test: one
// distributed self-join over two real in-process workers yields, on the
// coordinator, a single trace with the server span at the root and one
// shard child span per worker — and each worker retains its own trace
// under the SAME trace ID, parented to the coordinator's RPC attempt,
// because the traceparent header crossed the HTTP boundary.
func TestClusterTracePropagation(t *testing.T) {
	coord := stack(t, spec{workers: 2, margin: 0.3})
	doJSON(t, http.MethodPut, coord.URL+"/datasets/pts",
		api.Points{Points: jointest.UniformPoints(60, 2, 7)}, http.StatusOK)

	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/pts/selfjoin",
		map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}

	const route = "POST /datasets/{name}/selfjoin"
	td, ok := traceWithRoot(getTraces(t, coord.URL), route)
	if !ok {
		t.Fatal("coordinator retained no selfjoin trace")
	}
	root, _ := td.Root()
	if got := root.Attr("status"); got != "200" {
		t.Errorf("root span status = %q, want 200", got)
	}
	var shardSpans []trace.SpanData
	for _, sp := range td.Spans {
		if sp.Name == "shard.selfjoin" {
			shardSpans = append(shardSpans, sp)
			if sp.TraceID != td.TraceID {
				t.Errorf("shard span trace %s, want %s", sp.TraceID, td.TraceID)
			}
			if sp.ParentID != root.SpanID {
				t.Errorf("shard span parent %s, want root %s", sp.ParentID, root.SpanID)
			}
			if sp.Attr("status") != "ok" {
				t.Errorf("shard span status = %q, want ok", sp.Attr("status"))
			}
		}
	}
	if len(shardSpans) != len(coord.workers) {
		t.Fatalf("coordinator trace has %d shard spans, want %d:\n%+v",
			len(shardSpans), len(coord.workers), td.Spans)
	}
	// Each RPC attempt under a shard span carried the traceparent the
	// worker continued: the worker's own trace shares the trace ID and
	// parents its server span to one of the coordinator's attempt spans.
	attempts := map[string]bool{}
	for _, sp := range td.Spans {
		if sp.Name == "rclient.attempt" {
			attempts[sp.SpanID] = true
		}
	}
	if len(attempts) < len(coord.workers) {
		t.Fatalf("coordinator trace has %d rclient.attempt spans, want ≥ %d", len(attempts), len(coord.workers))
	}
	for i, w := range coord.workers {
		wtd, ok := traceWithRoot(getTraces(t, w), route)
		if !ok {
			t.Fatalf("worker %d retained no selfjoin trace", i)
		}
		if wtd.TraceID != td.TraceID {
			t.Errorf("worker %d trace %s, want coordinator's %s", i, wtd.TraceID, td.TraceID)
		}
		wroot, _ := wtd.Root()
		if !attempts[wroot.ParentID] {
			t.Errorf("worker %d root parent %s is not a coordinator attempt span", i, wroot.ParentID)
		}
	}
}

// TestWorkerJoinSpanUnderServerSpan: a worker's own trace nests the
// library's entry-point span (with its work counters and worker count)
// under the HTTP server span.
func TestWorkerJoinSpanUnderServerSpan(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {0.9, 0.9}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}
	td, ok := traceWithRoot(getTraces(t, ts.URL), "POST /datasets/{name}/selfjoin")
	if !ok {
		t.Fatal("no selfjoin trace retained")
	}
	root, _ := td.Root()
	kids := td.ChildrenOf(root.SpanID)
	if len(kids) != 1 || kids[0].Name != "simjoin.SelfJoin" {
		t.Fatalf("server span children = %+v, want one simjoin.SelfJoin", kids)
	}
	if kids[0].Attr("algorithm") == "" {
		t.Error("join span missing algorithm attr")
	}
	// No workers in the request: the join ran on every core.
	if got, want := kids[0].Attr("workers"), strconv.Itoa(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("join span workers = %q, want GOMAXPROCS %s", got, want)
	}
	var pairs int64 = -1
	for _, c := range kids[0].Counters {
		if c.Key == "pairs_emitted" {
			pairs = c.Value
		}
	}
	if pairs != 1 {
		t.Errorf("join span pairs_emitted = %d, want 1", pairs)
	}
}

// TestErrorResponsesLogTraceID is the logging satellite's contract: a
// failed request produces a structured log line at WARN or above whose
// trace_id matches a trace retained in /debug/traces.
func TestErrorResponsesLogTraceID(t *testing.T) {
	var buf bytes.Buffer
	ts := stack(t, spec{tune: func(s *server) { s.log = slog.New(slog.NewJSONHandler(&buf, nil)) }})

	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/missing/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}

	var line struct {
		Level   string `json:"level"`
		Msg     string `json:"msg"`
		Status  int    `json:"status"`
		Route   string `json:"route"`
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &line); err != nil {
		t.Fatalf("log output is not JSON: %v\n%s", err, buf.String())
	}
	if line.Msg != "request" || line.Level != "WARN" || line.Status != 404 {
		t.Errorf("log line = %+v, want WARN request status 404", line)
	}
	if line.TraceID == "" || line.SpanID == "" {
		t.Fatalf("log line missing trace/span IDs: %+v", line)
	}
	found := false
	for _, td := range getTraces(t, ts.URL) {
		if td.TraceID == line.TraceID {
			found = true
			if root, ok := td.Root(); !ok || root.SpanID != line.SpanID {
				t.Errorf("logged span_id %s is not the trace's root", line.SpanID)
			}
		}
	}
	if !found {
		t.Errorf("logged trace_id %s not present in /debug/traces", line.TraceID)
	}
}
