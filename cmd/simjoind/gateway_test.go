package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/gateway"
	"simjoin/internal/rclient"
)

// startGatewayStack boots the full production topology in-process: a
// gateway in front of a real coordinator sharding over three real
// workers. Returned is the gateway object (for metrics/drain) and its
// server; datasets are uploaded through the coordinator URL.
func startGatewayStack(t *testing.T, cfg *gateway.Config) (*gateway.Gateway, *httptest.Server, *httptest.Server, []*httptest.Server) {
	t.Helper()
	coord, workers := startCluster(t, 3, 0.35)
	g, err := gateway.New(gateway.Options{
		Backend: coord.URL,
		Client: &rclient.Client{
			MaxRetries:     2,
			BaseDelay:      2 * time.Millisecond,
			MaxDelay:       10 * time.Millisecond,
			AttemptTimeout: 10 * time.Second,
		},
	})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	if err := g.SetConfig(cfg); err != nil {
		t.Fatalf("SetConfig: %v", err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	return g, gw, coord, workers
}

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

// gwJoin posts a selfjoin through the gateway as one tenant.
func gwJoin(t *testing.T, gwURL, key, dataset string, body map[string]any, sticky string) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, gwURL+"/datasets/"+dataset+"/selfjoin", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+key)
	if sticky != "" {
		req.Header.Set(gateway.StickyHeader, sticky)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// scrapeGW fetches the gateway's /metrics text.
func scrapeGW(t *testing.T, gwURL string) string {
	t.Helper()
	resp, err := http.Get(gwURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
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
	_, gw, coord, _ := startGatewayStack(t, &gateway.Config{
		Tenants: []gateway.Tenant{
			{Name: "a", Key: "key-a", RatePerSec: 0.0001, Burst: 3},
			{Name: "b", Key: "key-b"},
		},
	})
	putPoints(t, coord.URL, "d", clusterPoints(200, 4, 7))

	shed := 0
	for i := 0; i < 6; i++ {
		resp, body := gwJoin(t, gw.URL, "key-a", "d", map[string]any{"eps": 0.2}, "")
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
		resp, body := gwJoin(t, gw.URL, "key-b", "d", map[string]any{"eps": 0.2}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant b request %d caught in a's quota: status %d %v", i, resp.StatusCode, body)
		}
	}
	text := scrapeGW(t, gw.URL)
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
	_, gw, coord, _ := startGatewayStack(t, &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
		Experiments: []gateway.Experiment{
			{Name: "split", Percent: 50, Override: gateway.Override{Algorithm: "brute"}},
		},
	})
	putPoints(t, coord.URL, "d", clusterPoints(120, 4, 11))

	const n = 200
	for i := 0; i < n; i++ {
		resp, body := gwJoin(t, gw.URL, "k", "d", map[string]any{"eps": 0.15}, fmt.Sprintf("user-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d %v", i, resp.StatusCode, body)
		}
	}
	text := scrapeGW(t, gw.URL)
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
	g, gw, coord, _ := startGatewayStack(t, &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
		Experiments: []gateway.Experiment{
			{Name: "sh", Percent: 100, Shadow: true, Override: gateway.Override{Algorithm: "brute"}},
		},
	})
	putPoints(t, coord.URL, "d", clusterPoints(150, 4, 13))

	const n = 8
	for i := 0; i < n; i++ {
		resp, body := gwJoin(t, gw.URL, "k", "d", map[string]any{"eps": 0.15}, fmt.Sprintf("s%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d %v", i, resp.StatusCode, body)
		}
		if _, hasPairs := body["pairs"]; !hasPairs {
			t.Fatalf("shadowed request %d lost the incumbent answer: %v", i, body)
		}
	}
	g.ShadowDrain()
	text := scrapeGW(t, gw.URL)
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
	_, gw, coord, workers := startGatewayStack(t, &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
	})
	putPoints(t, coord.URL, "d", clusterPoints(100, 4, 17))

	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	raw, _ := json.Marshal(map[string]any{"eps": 0.2})
	req, _ := http.NewRequest(http.MethodPost, gw.URL+"/datasets/d/selfjoin", bytes.NewReader(raw))
	req.Header.Set("Authorization", "Bearer k")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced join: status %d", resp.StatusCode)
	}

	const server = "POST /datasets/{name}/selfjoin"
	type tier struct {
		url, root string
		sources   int
	}
	tiers := []tier{{gw.URL, "gw " + server, 1}, {coord.URL, server, len(workers)}}
	for _, w := range workers {
		tiers = append(tiers, tier{w.URL, server, 0})
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
		if tc.url == gw.URL {
			whole = tv
		}
		resp, err := http.Get(tc.url + "/debug/traces/deadbeefdeadbeefdeadbeefdeadbeef")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: unknown trace ID answered %d, want 404", tc.url, resp.StatusCode)
		}
	}
	if servers := countSpans(whole, server); servers != 1+len(workers) {
		t.Fatalf("gateway's tree holds %d coordinator+worker server spans, want %d — not gateway→coordinator→worker", servers, 1+len(workers))
	}

	workers[0].Close()
	tv, _ := getTraceView(t, coord.URL, traceID)
	for i, src := range tv.Sources {
		if (src.URL == workers[0].URL) != (i == 0) || (src.Err != "") != (i == 0) {
			t.Errorf("with worker 0 down, source %d = %+v", i, src)
		}
	}
	if servers := countSpans(tv, server); servers != len(workers) {
		t.Errorf("with worker 0 down, the coordinator stitched %d server spans, want its own and %d workers'", servers, len(workers)-1)
	}
	assertOneTree(t, coord.URL, tv, server)
}

// getTraceView fetches GET /debug/traces/{id} from one tier, returning
// the decoded answer and its raw body.
func getTraceView(t *testing.T, base, id string) (api.TraceView, string) {
	t.Helper()
	body := getBody(t, base+"/debug/traces/"+id)
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
	_, gw, coord, workers := startGatewayStack(t, &gateway.Config{
		Tenants: []gateway.Tenant{{Name: "a", Key: "k"}},
		Experiments: []gateway.Experiment{
			{Name: "brute-all", Percent: 100, Override: gateway.Override{Algorithm: "brute", Workers: 2}},
		},
	})
	putPoints(t, coord.URL, "d", clusterPoints(150, 4, 19))

	// Oracle: the same join through the coordinator without the gateway.
	respO, bodyO := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/selfjoin", map[string]any{"eps": 0.15})
	if respO.StatusCode != http.StatusOK {
		t.Fatalf("oracle join: %d", respO.StatusCode)
	}
	resp, body := gwJoin(t, gw.URL, "k", "d", map[string]any{"eps": 0.15}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("brute arm join: %d %v", resp.StatusCode, body)
	}
	if body["total"] != bodyO["total"] {
		t.Fatalf("brute arm total %v differs from oracle %v", body["total"], bodyO["total"])
	}
	// Newest first: the routed join, then the oracle's.
	for i, w := range workers {
		q := getQueries(t, w.URL, "?dataset=d").Queries
		if len(q) != 2 || q[0].Algorithm != "brute" || q[1].Algorithm == "brute" {
			t.Fatalf("worker %d journal = %+v, want the routed join as brute after a default-engine oracle join", i, q)
		}
	}
}
