package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simjoin/internal/obsv"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

func testServer(log *slog.Logger) *Server {
	reg := obsv.NewRegistry()
	return &Server{
		Registry: reg,
		Requests: reg.NewCounterVec("t_requests_total", "requests", "route"),
		Errors:   reg.NewCounterVec("t_errors_total", "errors", "route"),
		Latency:  reg.NewHistogramVec("t_request_duration_seconds", "latency", obsv.LatencyBuckets(), "route"),
		Tracer:   trace.New(8), SpanPrefix: "t ", Log: log, Journal: querylog.New(0),
	}
}

func metricsText(s *Server) string {
	var sb strings.Builder
	s.Registry.Write(&sb)
	return sb.String()
}

// TestInstrumentRecordsOnce drives one failing request through the
// middleware: exactly one request, one error and one latency sample
// land under the route pattern (not the concrete path), the server span
// carries the tier's prefix, and the access log line names the status
// and the bytes written.
func TestInstrumentRecordsOnce(t *testing.T) {
	var logs bytes.Buffer
	s := testServer(slog.New(slog.NewJSONHandler(&logs, nil)))
	const pattern = "POST /datasets/{name}/knn"
	mux := http.NewServeMux()
	mux.HandleFunc(pattern, s.Instrument(pattern, func(w http.ResponseWriter, r *http.Request) {
		if trace.FromContext(r.Context()) == nil {
			t.Error("handler runs without the server span in its context")
		}
		Error(w, http.StatusBadRequest, "k must be ≥ %d", 1)
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/datasets/a/knn", strings.NewReader("{}"))
	req.Header.Set("X-Request-Id", "req-7")
	mux.ServeHTTP(rec, req)

	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusBadRequest || body.Error != "k must be ≥ 1" {
		t.Fatalf("answer = %d %q (%v)", rec.Code, rec.Body.String(), err)
	}
	text := metricsText(s)
	for _, want := range []string{
		`t_requests_total{route="POST /datasets/{name}/knn"} 1`,
		`t_errors_total{route="POST /datasets/{name}/knn"} 1`,
		`t_request_duration_seconds_count{route="POST /datasets/{name}/knn"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	if n := strings.Count(text, `{route="`); n != len(obsv.LatencyBuckets())+5 {
		t.Errorf("%d route-labeled samples, want one child per family:\n%s", n, text)
	}
	traces := s.Tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	root, _ := traces[0].Root()
	if root.Name != "t "+pattern || root.Attr("status") != "400" || root.Attr("request_id") != "req-7" {
		t.Errorf("server span = %+v", root)
	}
	var line struct {
		Msg, Route, TraceID string
		Status              int
		Bytes               int64
		RequestID           string `json:"request_id"`
	}
	if err := json.Unmarshal(logs.Bytes(), &line); err != nil {
		t.Fatalf("access log %q: %v", logs.String(), err)
	}
	if line.Msg != "request" || line.Route != pattern || line.Status != 400 || line.Bytes != int64(rec.Body.Len()) || line.RequestID != "req-7" {
		t.Errorf("access log line = %+v", line)
	}
}

// TestInstrumentKeepsStreaming runs a watch stream through the
// middleware on a real connection: the recorder must pass Flush through
// (the hello line arrives while the handler is still running) and
// Unwrap to the connection (SetWriteDeadline is reachable, or every
// WatchStream event would fail).
func TestInstrumentKeepsStreaming(t *testing.T) {
	s := testServer(nil)
	release := make(chan struct{})
	const pattern = "POST /datasets/{name}/watch"
	mux := http.NewServeMux()
	mux.HandleFunc(pattern, s.Instrument(pattern, func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			t.Errorf("SetWriteDeadline through the recorder: %v", err)
		}
		ws := NewWatchStream(w)
		if !ws.Hello(WatchHello{Dataset: "a", Seq: 3, Eps: 0.1, Metric: "L2"}) {
			t.Error("hello not delivered")
		}
		<-release
		shard := 0
		ws.Batch([][2]int{{0, 1}, {1, 2}}, WatchBatch{Shard: &shard, Seq: 5, Added: 2})
		ws.End("dataset deleted")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/datasets/a/watch", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hello WatchHello
	if err := json.Unmarshal([]byte(first), &hello); err != nil || hello.Event != "hello" || hello.Seq != 3 {
		t.Fatalf("first line %q (%v)", first, err)
	}
	close(release)
	var pairs [][2]int
	var events []string
	err = ReadStream(br, func(p [2]int) error {
		pairs = append(pairs, p)
		return nil
	}, func(raw json.RawMessage) error {
		events = append(events, string(raw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"event":"batch","shard":0,"seq":5,"added":2,"pairs":2}`,
		`{"event":"end","reason":"dataset deleted"}`,
	}
	if fmt.Sprint(pairs) != "[[0 1] [1 2]]" || fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("stream = %v %v, want 2 pairs and %v", pairs, events, want)
	}
	if text := metricsText(s); !strings.Contains(text, `t_requests_total{route="POST /datasets/{name}/watch"} 1`) || strings.Contains(text, "t_errors_total{") {
		t.Errorf("stream miscounted:\n%s", text)
	}
}

// TestInstrumentContainsPanics: a handler that panics before answering
// costs its own request a 500 with an error body; one that panics
// mid-stream cuts the connection, so the client never reads a clean
// end. Both count as errors, mark their span 500 and log the panic at
// error level, and the server answers the next request as usual.
func TestInstrumentContainsPanics(t *testing.T) {
	var logs bytes.Buffer
	s := testServer(slog.New(slog.NewJSONHandler(&logs, nil)))
	mux := http.NewServeMux()
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /boom": func(w http.ResponseWriter, r *http.Request) { panic("engine blew up") },
		"GET /stream": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, "[0,1]\n")
			w.(http.Flusher).Flush()
			panic("engine blew up mid-stream")
		},
		"GET /ok": func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, ErrorBody{}) },
	} {
		mux.HandleFunc(pattern, s.Instrument(pattern, h))
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var body ErrorBody
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, "engine blew up") {
		t.Fatalf("panicking handler answered %d %+v (%v), want a 500 error body", resp.StatusCode, body, err)
	}

	resp, err = http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("stream that panicked ended cleanly after %q", got)
	}

	resp, err = http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panics: %d, want 200", resp.StatusCode)
	}

	text := metricsText(s)
	for _, want := range []string{
		`t_errors_total{route="GET /boom"} 1`,
		`t_errors_total{route="GET /stream"} 1`,
		`t_requests_total{route="GET /ok"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	if strings.Contains(text, `t_errors_total{route="GET /ok"}`) {
		t.Errorf("the request after the panics counted as an error:\n%s", text)
	}
	statuses := map[string]string{}
	for _, td := range s.Tracer.Traces() {
		root, _ := td.Root()
		statuses[root.Name] = root.Attr("status")
	}
	if statuses["t GET /boom"] != "500" || statuses["t GET /stream"] != "500" || statuses["t GET /ok"] != "200" {
		t.Errorf("server span statuses = %v", statuses)
	}
	panics := 0
	for _, raw := range bytes.Split(bytes.TrimSpace(logs.Bytes()), []byte("\n")) {
		var line struct {
			Level, Route, Panic string
			Status              int
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("access log %q: %v", raw, err)
		}
		if line.Panic != "" {
			panics++
			if line.Level != "ERROR" || line.Status != 500 || !strings.Contains(line.Panic, "engine blew up") {
				t.Errorf("panic log line = %+v", line)
			}
		}
	}
	if panics != 2 {
		t.Errorf("%d access-log lines carry a panic, want 2:\n%s", panics, logs.String())
	}
}

// TestWriteJSONEncodeFailure: a value JSON cannot carry is a 500 with an
// error body, never an empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, KNNResponse{Neighbors: []Neighbor{{Index: 1, Dist: math.Inf(1)}}})
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("answer = %d %q (%v)", rec.Code, rec.Body.String(), err)
	}
}

// TestPairStream: the cap drops pair lines past it, the summary closes
// the stream, and ReadStream takes the answer apart again.
func TestPairStream(t *testing.T) {
	rec := httptest.NewRecorder()
	ps := NewPairStream(rec, 2)
	for i := 0; i < 5; i++ {
		ps.Emit(i, i+1)
	}
	est := int64(7)
	ps.Close(JoinSummary{Total: 5, Truncated: true, EstimatedPairs: &est, Scatter: &Scatter{Shards: 3}})
	if ps.Sent() != 2 || rec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("sent %d as %q", ps.Sent(), rec.Header().Get("Content-Type"))
	}
	var pairs [][2]int
	var sum JoinSummary
	err := ReadStream(rec.Body, func(p [2]int) error {
		pairs = append(pairs, p)
		return nil
	}, func(raw json.RawMessage) error { return json.Unmarshal(raw, &sum) })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pairs) != "[[0 1] [1 2]]" || sum.Total != 5 || !sum.Truncated || *sum.EstimatedPairs != 7 || sum.Shards != 3 || sum.Partial {
		t.Errorf("read back %v %+v", pairs, sum)
	}
	if err := ReadStream(strings.NewReader("[1,2]\n[3"), func([2]int) error { return nil }, nil); err == nil || err == io.EOF {
		t.Errorf("torn stream read as %v, want a decode error", err)
	}
}
