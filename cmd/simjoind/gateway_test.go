package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/gateway"
	"simjoin/internal/jointest"
)

// TestGatewayTakesOneBackend: -backends names the one tier the gateway
// fronts; a list is refused with the way to front a fleet instead.
func TestGatewayTakesOneBackend(t *testing.T) {
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	_, _, err := startGateway(logger, "http://127.0.0.1:1,http://127.0.0.1:2", "tenants.json", 1<<20)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("two backends: err = %v, want a refusal pointing at a coordinator (-workers)", err)
	}
	if got := run([]string{"-gateway", "-backends", "http://127.0.0.1:1,http://127.0.0.1:2", "-tenants", "tenants.json", "-addr", "127.0.0.1:0"}); got != 2 {
		t.Errorf("run with two backends = %d, want 2", got)
	}
}

// sampleValue pulls one sample's value out of Prometheus text.
func sampleValue(text, sample string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			fmt.Sscanf(line[len(sample)+1:], "%g", &v)
			return v
		}
	}
	return 0
}

// TestGatewayE2EQuotaIsolation is the tenancy acceptance test: tenant A
// exhausting its quota is shed with 429 + Retry-After while tenant B's
// traffic through the same gateway is unaffected.
func TestGatewayE2EQuotaIsolation(t *testing.T) {
	st := stack(t, spec{workers: 3, margin: 0.35, gateway: &gateway.Config{
		Tenants: []gateway.Tenant{
			{Name: "a", Key: "key-a", RatePerSec: 0.0001, Burst: 3},
			{Name: "b", Key: "key-b"},
		},
	}})
	doJSON(t, http.MethodPut, st.coordURL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(200, 4, 7)}, http.StatusOK)

	shed := 0
	for i := 0; i < 6; i++ {
		resp, body := doJSON(t, http.MethodPost, st.gwURL+"/datasets/d/selfjoin",
			map[string]any{"eps": 0.2}, 0, "Authorization", "Bearer key-a")
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			if body["reason"] != "rate" {
				t.Fatalf("shed reason %v, want rate", body["reason"])
			}
		default:
			t.Fatalf("tenant a request %d: status %d", i, resp.StatusCode)
		}
	}
	if shed != 3 {
		t.Fatalf("tenant a: %d of 6 requests shed past burst 3, want 3", shed)
	}
	// Tenant B is untouched by A's exhaustion.
	for i := 0; i < 5; i++ {
		resp, body := doJSON(t, http.MethodPost, st.gwURL+"/datasets/d/selfjoin",
			map[string]any{"eps": 0.2}, 0, "Authorization", "Bearer key-b")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant b request %d caught in a's quota: status %d %v", i, resp.StatusCode, body)
		}
	}
	text := getText(t, st.gwURL+"/metrics")
	if got := sampleValue(text, `simjoin_gw_shed_total{tenant="a",reason="rate"}`); got != 3 {
		t.Fatalf(`shed_total{a,rate} = %v, want 3`, got)
	}
	if got := sampleValue(text, `simjoin_gw_shed_total{tenant="b",reason="rate"}`); got != 0 {
		t.Fatalf(`shed_total{b,rate} = %v, want 0`, got)
	}
}

// TestGatewayE2EABSplit drives 200 requests with distinct sticky keys
// through a 50% experiment and checks both that the split lands within
// ±15 points and that every key's assignment is deterministic.
func TestGatewayE2EABSplit(t *testing.T) {
	st := stack(t, spec{workers: 3, margin: 0.35, gateway: &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
		Experiments: []gateway.Experiment{
			{Name: "split", Percent: 50, Override: gateway.Override{Algorithm: "brute"}},
		},
	}})
	doJSON(t, http.MethodPut, st.coordURL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(120, 4, 11)}, http.StatusOK)

	const n = 200
	for i := 0; i < n; i++ {
		resp, body := doJSON(t, http.MethodPost, st.gwURL+"/datasets/d/selfjoin",
			map[string]any{"eps": 0.15}, 0, "Authorization", "Bearer k", gateway.StickyHeader, fmt.Sprintf("user-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d %v", i, resp.StatusCode, body)
		}
	}
	text := getText(t, st.gwURL+"/metrics")
	cand := sampleValue(text, `simjoin_gw_arm_requests_total{experiment="split",arm="candidate"}`)
	inc := sampleValue(text, `simjoin_gw_arm_requests_total{experiment="split",arm="incumbent"}`)
	if cand+inc != n {
		t.Fatalf("arms account for %v requests, want %d", cand+inc, n)
	}
	if cand < n*0.35 || cand > n*0.65 {
		t.Fatalf("50%% experiment routed %v/%d to the candidate (outside ±15 points)", cand, n)
	}
	// Latency histograms exist for both arms.
	for _, arm := range []string{"incumbent", "candidate"} {
		want := fmt.Sprintf(`simjoin_gw_arm_latency_seconds_count{experiment="split",arm=%q}`, arm)
		if sampleValue(text, want) == 0 {
			t.Fatalf("no latency samples for arm %s", arm)
		}
	}
}

// TestGatewayE2EShadowNoMismatch shadows every join onto a forced-brute
// candidate over the real 3-worker cluster. Brute force and the default
// engine are both exact, so the differ must report zero mismatches —
// this is the experiment pipeline's end-to-end correctness proof.
func TestGatewayE2EShadowNoMismatch(t *testing.T) {
	st := stack(t, spec{workers: 3, margin: 0.35, gateway: &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
		Experiments: []gateway.Experiment{
			{Name: "sh", Percent: 100, Shadow: true, Override: gateway.Override{Algorithm: "brute"}},
		},
	}})
	doJSON(t, http.MethodPut, st.coordURL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(150, 4, 13)}, http.StatusOK)

	const n = 8
	for i := 0; i < n; i++ {
		resp, body := doJSON(t, http.MethodPost, st.gwURL+"/datasets/d/selfjoin",
			map[string]any{"eps": 0.15}, 0, "Authorization", "Bearer k", gateway.StickyHeader, fmt.Sprintf("s%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d %v", i, resp.StatusCode, body)
		}
		if _, hasPairs := body["pairs"]; !hasPairs {
			t.Fatalf("shadowed request %d lost the incumbent answer: %v", i, body)
		}
	}
	st.gw.ShadowDrain()
	text := getText(t, st.gwURL+"/metrics")
	diffs := sampleValue(text, `simjoin_gw_shadow_diffs_total{experiment="sh"}`)
	dropped := sampleValue(text, "simjoin_gw_shadow_dropped_total")
	if diffs+dropped != n {
		t.Fatalf("shadow runs: %v diffed + %v dropped, want %d total", diffs, dropped, n)
	}
	if diffs == 0 {
		t.Fatal("every shadow was dropped — nothing was compared")
	}
	if got := sampleValue(text, `simjoin_gw_shadow_mismatch_total{experiment="sh"}`); got != 0 {
		t.Fatalf("exact engines disagreed %v times in shadow", got)
	}
}

// TestGatewayE2EStitchedTrace sends a traced join through the gateway
// and holds every tier to one trace contract: GET /debug/traces/{id}
// answers one tree rooted at the tier's own server span, holding the
// spans of every tier below it, with one source per tier asked (none on
// a worker), and 404 for an ID no tier retains. A worker that cannot
// answer is named in the coordinator's sources while the others' spans
// still stitch.
func TestGatewayE2EStitchedTrace(t *testing.T) {
	st := stack(t, spec{workers: 3, margin: 0.35, gateway: &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
	}})
	doJSON(t, http.MethodPut, st.coordURL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(100, 4, 17)}, http.StatusOK)

	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	resp, _ := doJSON(t, http.MethodPost, st.gwURL+"/datasets/d/selfjoin",
		map[string]any{"eps": 0.2}, 0, "Authorization", "Bearer k", "traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced join: status %d", resp.StatusCode)
	}

	const server = "POST /datasets/{name}/selfjoin"
	type tier struct {
		url, root string
		sources   int
	}
	tiers := []tier{{st.gwURL, "gw " + server, 1}, {st.coordURL, server, len(st.workers)}}
	for _, w := range st.workers {
		tiers = append(tiers, tier{w, server, 0})
	}
	var whole api.TraceView
	for _, tc := range tiers {
		tv, body := getTraceView(t, tc.url, traceID)
		if tv.TraceID != traceID || len(tv.Sources) != tc.sources || (tc.sources == 0 && strings.Contains(body, `"sources"`)) {
			t.Fatalf("%s: trace %q with sources %+v, want trace %q and %d sources", tc.url, tv.TraceID, tv.Sources, traceID, tc.sources)
		}
		for _, src := range tv.Sources {
			if src.Err != "" {
				t.Errorf("%s: source %s failed: %s", tc.url, src.URL, src.Err)
			}
		}
		assertOneTree(t, tc.url, tv, tc.root)
		if tc.url == st.gwURL {
			whole = tv
		}
		resp, _ := doJSON(t, http.MethodGet, tc.url+"/debug/traces/deadbeefdeadbeefdeadbeefdeadbeef", nil, 0)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: unknown trace ID answered %d, want 404", tc.url, resp.StatusCode)
		}
	}
	if servers := countSpans(whole, server); servers != 1+len(st.workers) {
		t.Fatalf("gateway's tree holds %d coordinator+worker server spans, want %d — not gateway→coordinator→worker", servers, 1+len(st.workers))
	}

	st.Kill(0)
	tv, _ := getTraceView(t, st.coordURL, traceID)
	for i, src := range tv.Sources {
		if (src.URL == st.workers[0]) != (i == 0) || (src.Err != "") != (i == 0) {
			t.Errorf("with worker 0 down, source %d = %+v", i, src)
		}
	}
	if servers := countSpans(tv, server); servers != len(st.workers) {
		t.Errorf("with worker 0 down, the coordinator stitched %d server spans, want its own and %d workers'", servers, len(st.workers)-1)
	}
	assertOneTree(t, st.coordURL, tv, server)
}

// getTraceView fetches GET /debug/traces/{id} from one tier, returning
// the decoded answer and its raw body.
func getTraceView(t *testing.T, base, id string) (api.TraceView, string) {
	t.Helper()
	body := getText(t, base+"/debug/traces/"+id)
	var tv api.TraceView
	if err := json.Unmarshal([]byte(body), &tv); err != nil {
		t.Fatalf("%s: decoding trace %s: %v\n%s", base, id, err, body)
	}
	return tv, body
}

// assertOneTree fails unless tv's spans form one tree — a single span
// whose parent is not among them — rooted at a span named root.
func assertOneTree(t *testing.T, tier string, tv api.TraceView, root string) {
	t.Helper()
	local := map[string]bool{}
	for _, sp := range tv.Spans {
		local[sp.SpanID] = true
	}
	var roots []string
	for _, sp := range tv.Spans {
		if !local[sp.ParentID] {
			roots = append(roots, sp.Name)
		}
	}
	if len(roots) != 1 || roots[0] != root {
		t.Errorf("%s: trace roots %q, want one tree under %q", tier, roots, root)
	}
}

// countSpans counts the spans named name.
func countSpans(tv api.TraceView, name string) int {
	n := 0
	for _, sp := range tv.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestGatewayE2ERoutedOverride proves a routed experiment override crosses
// gateway → coordinator → worker: a 100% (non-shadow) rule forces the brute
// engine, every worker's journal shows the join ran as brute rather than
// the default, and the answer is still the exact pair count.
func TestGatewayE2ERoutedOverride(t *testing.T) {
	st := stack(t, spec{workers: 3, margin: 0.35, gateway: &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
		Experiments: []gateway.Experiment{
			{Name: "brute-all", Percent: 100, Override: gateway.Override{Algorithm: "brute", Workers: 2}},
		},
	}})
	doJSON(t, http.MethodPut, st.coordURL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(150, 4, 19)}, http.StatusOK)

	// Oracle: the same join through the coordinator without the gateway.
	respO, bodyO := doJSON(t, http.MethodPost, st.coordURL+"/datasets/d/selfjoin",
		map[string]any{"eps": 0.15}, 0)
	if respO.StatusCode != http.StatusOK {
		t.Fatalf("oracle join: %d", respO.StatusCode)
	}
	resp, body := doJSON(t, http.MethodPost, st.gwURL+"/datasets/d/selfjoin",
		map[string]any{"eps": 0.15}, 0, "Authorization", "Bearer k")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("brute arm join: %d %v", resp.StatusCode, body)
	}
	if body["total"] != bodyO["total"] {
		t.Fatalf("brute arm total %v differs from oracle %v", body["total"], bodyO["total"])
	}
	// Newest first: the routed join, then the oracle's.
	for i, w := range st.workers {
		q := getQueries(t, w, "?dataset=d").Queries
		if len(q) != 2 || q[0].Algorithm != "brute" || q[1].Algorithm == "brute" {
			t.Fatalf("worker %d journal = %+v, want the routed join as brute after a default-engine oracle join", i, q)
		}
	}
}
