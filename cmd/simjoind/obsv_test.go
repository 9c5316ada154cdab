package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/jointest"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

// queriesPage is the GET /debug/queries response shape.
type queriesPage struct {
	Total   int64             `json:"total"`
	Slow    int64             `json:"slow"`
	Queries []querylog.Record `json:"queries"`
}

// getQueries fetches a daemon's query journal, with optional filters
// ("?slow=1", "?dataset=a&limit=2", …).
func getQueries(t *testing.T, base, filters string) queriesPage {
	t.Helper()
	var out queriesPage
	if err := json.Unmarshal([]byte(getText(t, base+"/debug/queries"+filters)), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWorkerQueryJournal(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {0.9, 0.9}}}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b",
		api.Points{Points: [][]float64{{1, 1}, {2, 2}}}, http.StatusOK)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/datasets/b/knn",
		map[string]any{"point": []float64{0, 0}, "k": 1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn: %d", resp.StatusCode)
	}

	page := getQueries(t, ts.URL, "")
	if page.Total != 2 {
		t.Fatalf("journal total = %d, want 2", page.Total)
	}
	// Newest first: the KNN query leads.
	if page.Queries[0].Kind != "knn" || page.Queries[1].Kind != "selfjoin" {
		t.Fatalf("journal order = %q, %q; want knn, selfjoin", page.Queries[0].Kind, page.Queries[1].Kind)
	}
	sj := page.Queries[1]
	if sj.Dataset != "a" || sj.Outcome != querylog.OutcomeOK {
		t.Fatalf("selfjoin record = %+v", sj)
	}
	if sj.ActualPairs != 1 {
		t.Errorf("selfjoin actual_pairs = %d, want 1", sj.ActualPairs)
	}
	if sj.EstimatedPairs < 0 {
		t.Errorf("selfjoin record missing estimate (sketches are on): %+v", sj)
	}
	if sj.Algorithm == "" || sj.TraceID == "" || sj.ElapsedNS <= 0 {
		t.Errorf("selfjoin record missing algorithm/trace/elapsed: %+v", sj)
	}
	if sj.Algorithm == "ekdb" && sj.Keys != "raw" {
		t.Errorf("ekdb selfjoin over 2-d points journaled keys %q, want raw", sj.Keys)
	}
	// A collected answer journals all three phases, inside the wall time.
	if sj.ProbeNS <= 0 || sj.CollectNS <= 0 || sj.BuildNS+sj.ProbeNS+sj.CollectNS > sj.ElapsedNS {
		t.Errorf("selfjoin record phases build %d + probe %d + collect %d vs elapsed %d",
			sj.BuildNS, sj.ProbeNS, sj.CollectNS, sj.ElapsedNS)
	}
	// The record's trace ID resolves in the trace ring.
	found := false
	for _, td := range getTraces(t, ts.URL) {
		if td.TraceID == sj.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("journal trace_id %s not in /debug/traces", sj.TraceID)
	}

	// Filters: by dataset, and by slow (nothing here runs 250ms).
	if got := getQueries(t, ts.URL, "?dataset=a"); len(got.Queries) != 1 || got.Queries[0].Kind != "selfjoin" {
		t.Errorf("?dataset=a returned %+v", got.Queries)
	}
	if got := getQueries(t, ts.URL, "?slow=1"); len(got.Queries) != 0 {
		t.Errorf("?slow=1 returned %+v", got.Queries)
	}
	if got := getQueries(t, ts.URL, "?limit=1"); len(got.Queries) != 1 {
		t.Errorf("?limit=1 returned %d records", len(got.Queries))
	}

	// The scrapeable shadow: the per-algorithm latency histogram saw the
	// join, the slow counter stayed at zero.
	scrape := getText(t, ts.URL+"/metrics")
	if !strings.Contains(scrape, `simjoin_query_duration_seconds_count{algorithm="`) {
		t.Error("scrape missing simjoin_query_duration_seconds series")
	}
	if !strings.Contains(scrape, "simjoin_query_slow_total 0") {
		t.Error("scrape missing simjoin_query_slow_total 0")
	}
}

func TestWorkerJournalRecordsRejection(t *testing.T) {
	ts := stack(t, spec{maxPairs: 1})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: jointest.UniformPoints(200, 2, 3)}, http.StatusOK)

	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.5}, 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	page := getQueries(t, ts.URL, "")
	if len(page.Queries) != 1 || page.Queries[0].Outcome != querylog.OutcomeRejected {
		t.Fatalf("journal after rejection = %+v", page.Queries)
	}
	if page.Queries[0].EstimatedPairs <= 1 {
		t.Errorf("rejected record estimate = %d, want > budget", page.Queries[0].EstimatedPairs)
	}
}

func TestWorkerExplainEndpoint(t *testing.T) {
	ts := stack(t, spec{})
	pts := jointest.UniformPoints(100, 2, 5)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: pts}, http.StatusOK)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/datasets/a/explain?eps=0.2&algorithm=auto", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %v", resp.StatusCode, body)
	}
	if body["dataset"] != "a" || body["metric"] != "L2" {
		t.Errorf("explain body = %v", body)
	}
	algo, _ := body["algorithm"].(string)
	if algo == "" || algo == "auto" {
		t.Errorf("explain left algorithm unresolved: %v", body)
	}
	plan, ok := body["plan"].(map[string]any)
	if !ok {
		t.Fatalf("explain missing plan: %v", body)
	}
	// 100 points fit in the sketch's reservoir, so the plan is exact.
	if est, _ := plan["estimated_pairs"].(float64); int(est) != len(jointest.SelfPairs(pts, 0.2)) {
		t.Errorf("explain plan = %v, want the exact %d pairs", plan, len(jointest.SelfPairs(pts, 0.2)))
	}

	// The default engine is the ε-kdB tree, whose EXPLAIN names its keys.
	if _, body := doJSON(t, http.MethodGet, ts.URL+"/datasets/a/explain?eps=0.2", nil, 0); body["algorithm"] != "ekdb" || body["keys"] != "raw" {
		t.Errorf("default explain = %v, want ekdb over raw keys", body)
	}

	// Validation: missing eps and bad algorithm are 400s, missing dataset 404.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/datasets/a/explain", nil, 0); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("explain without eps: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/datasets/a/explain?eps=0.2&algorithm=bogus", nil, 0); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("explain with bogus algorithm: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/datasets/zzz/explain?eps=0.2", nil, 0); resp.StatusCode != http.StatusNotFound {
		t.Errorf("explain on missing dataset: %d, want 404", resp.StatusCode)
	}
}

func TestHealthzCarriesBuildInfo(t *testing.T) {
	ts := stack(t, spec{})
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	build, ok := body["build"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing build block: %v", body)
	}
	if gv, _ := build["go"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("build.go = %q, want a Go version", gv)
	}
}

func TestTracesFilters(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {1, 1}}}, http.StatusOK)
	for i := 0; i < 3; i++ {
		doJSON(t, http.MethodGet, ts.URL+"/datasets", nil, 0)
	}

	all := getTraces(t, ts.URL)
	if len(all) < 3 {
		t.Fatalf("retained %d traces, want >= 3", len(all))
	}
	// ?limit caps the newest-first answer.
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/traces?limit=2", nil, 0)
	var limited []trace.TraceData
	json.NewDecoder(resp.Body).Decode(&limited)
	if len(limited) != 2 || limited[0].TraceID != all[0].TraceID {
		t.Fatalf("?limit=2 returned %d traces (first %s, want %s)", len(limited), limited[0].TraceID, all[0].TraceID)
	}
	// /debug/traces/{id} merges the ID's spans into one TraceData.
	want := all[1].TraceID
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/debug/traces/"+want, nil, 0)
	var merged trace.TraceData
	json.NewDecoder(resp.Body).Decode(&merged)
	if merged.TraceID != want || len(merged.Spans) == 0 {
		t.Fatalf("/debug/traces/%s = %+v", want, merged)
	}
	// Unknown ID is a 404; bad limit a 400.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/traces/deadbeef", nil, 0); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/traces?limit=x", nil, 0); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", resp.StatusCode)
	}
}

// TestRunRefusesBadFlags: every flag combination run() documents as a
// usage error returns 2 before anything listens (a case that got past
// its check would serve on -addr and hang the test instead).
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-max-body-bytes", "0"},
		{"-gateway", "-backends", "http://127.0.0.1:1", "-workers", "http://127.0.0.1:1"},
		{"-gateway"},
		{"-workers", "http://127.0.0.1:1", "-load", "a=a.csv"},
		{"-workers", "http://127.0.0.1:1", "-data", t.TempDir()},
		{"-workers", ","},
		{"-data", t.TempDir(), "-fsync", "bogus"},
	} {
		if got := run(append(args, "-addr", "127.0.0.1:0")); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
}

// runtimeSeries are the health-telemetry series every daemon registry
// must expose.
var runtimeSeries = []string{
	"simjoind_go_goroutines ",
	"simjoind_go_heap_bytes ",
	"simjoind_go_gc_pause_seconds_bucket",
	"simjoind_go_sched_latency_seconds_bucket",
	"simjoind_go_goroutine_growth ",
}

// TestClusterObservabilityE2E is the acceptance test: one distributed
// self-join over a real 3-worker cluster must leave (a) one stitched
// trace on the coordinator containing spans from the coordinator and
// all three workers, (b) journal records on both tiers sharing that
// trace ID with consistent estimate and actual counts, and (c) runtime
// health series on every /metrics.
func TestClusterObservabilityE2E(t *testing.T) {
	const n = 3
	// A (generous) budget makes the coordinator price the query, so its
	// journal record carries an estimate.
	coord := stack(t, spec{workers: n, margin: 0.3, maxPairs: 1 << 40})
	urls := coord.workers

	doJSON(t, http.MethodPut, coord.URL+"/datasets/pts",
		api.Points{Points: jointest.UniformPoints(120, 2, 11)}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/pts/selfjoin",
		map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}
	total := int64(body["total"].(float64))
	estResp, ok := body["estimated_pairs"].(float64)
	if !ok {
		t.Fatalf("response carries no estimated_pairs: %v", body)
	}

	// (b) coordinator journal: the selfjoin record matches the response
	// and names a trace.
	var coordRec querylog.Record
	for _, q := range getQueries(t, coord.URL, "").Queries {
		if q.Kind == "selfjoin" {
			coordRec = q
			break
		}
	}
	if coordRec.Kind != "selfjoin" {
		t.Fatal("coordinator journal has no selfjoin record")
	}
	if coordRec.ActualPairs != total || coordRec.EstimatedPairs != int64(estResp) {
		t.Fatalf("coordinator record (est %d, actual %d) != response (est %d, actual %d)",
			coordRec.EstimatedPairs, coordRec.ActualPairs, int64(estResp), total)
	}
	if coordRec.Shards != n {
		t.Errorf("coordinator record shards = %d, want %d", coordRec.Shards, n)
	}
	if coordRec.TraceID == "" {
		t.Fatal("coordinator record has no trace ID")
	}
	// The request omitted the metric: the coordinator journals the
	// canonical name the workers journal, not the field as typed — and
	// "l2" on a point query likewise.
	if coordRec.Metric != "L2" {
		t.Errorf("coordinator selfjoin record metric = %q, want L2", coordRec.Metric)
	}
	resp, body = doJSON(t, http.MethodPost, coord.URL+"/datasets/pts/range",
		map[string]any{"point": []float64{0.5, 0.5}, "radius": 0.1, "metric": "l2"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %v", resp.StatusCode, body)
	}
	if q := getQueries(t, coord.URL, "").Queries[0]; q.Kind != "range" || q.Metric != "L2" {
		t.Errorf("coordinator range record = %s/%q, want range/L2", q.Kind, q.Metric)
	}

	// Worker journals: each shard served the scattered selfjoin under the
	// SAME trace ID, estimate and actuals filled.
	for i, w := range urls {
		var wrec querylog.Record
		for _, q := range getQueries(t, w, "").Queries {
			if q.Kind == "selfjoin" && q.TraceID == coordRec.TraceID {
				wrec = q
				break
			}
		}
		if wrec.Kind == "" {
			t.Fatalf("worker %d journal has no selfjoin record for trace %s", i, coordRec.TraceID)
		}
		if wrec.EstimatedPairs < 0 {
			t.Errorf("worker %d record carries no estimate: %+v", i, wrec)
		}
		if wrec.Outcome != querylog.OutcomeOK || wrec.Algorithm == "" {
			t.Errorf("worker %d record = %+v", i, wrec)
		}
	}

	// (a) the coordinator stitches one distributed tree for that ID.
	var st struct {
		trace.TraceData
		Sources []api.TraceSource `json:"sources"`
	}
	if err := json.Unmarshal([]byte(getText(t, coord.URL+"/debug/traces/"+coordRec.TraceID)), &st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != coordRec.TraceID {
		t.Fatalf("stitched trace ID %s, want %s", st.TraceID, coordRec.TraceID)
	}
	if len(st.Sources) != n {
		t.Fatalf("stitched trace has %d sources, want %d", len(st.Sources), n)
	}
	for _, src := range st.Sources {
		if src.Err != "" {
			t.Errorf("source %s failed: %s", src.URL, src.Err)
		}
	}
	root, ok := st.Root()
	if !ok || root.Name != "POST /datasets/{name}/selfjoin" {
		t.Fatalf("stitched root = %+v", root)
	}
	// Every span is reachable from the root: one tree, not a forest.
	local := map[string]string{}
	for _, sp := range st.Spans {
		local[sp.SpanID] = sp.ParentID
	}
	reach := func(id string) bool {
		for hops := 0; hops < len(st.Spans)+1; hops++ {
			if id == root.SpanID {
				return true
			}
			next, ok := local[id]
			if !ok {
				return false
			}
			id = next
		}
		return false
	}
	workerServerSpans := 0
	for _, sp := range st.Spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %s belongs to trace %s", sp.SpanID, sp.TraceID)
		}
		if !reach(sp.SpanID) {
			t.Errorf("span %s (%s) not reachable from the root", sp.SpanID, sp.Name)
		}
		if sp.Name == "POST /datasets/{name}/selfjoin" && sp.SpanID != root.SpanID {
			workerServerSpans++
		}
	}
	if workerServerSpans != n {
		t.Fatalf("stitched tree has %d worker server spans, want %d:\n%+v", workerServerSpans, n, st.Spans)
	}

	// (c) runtime health series on both tiers.
	for _, base := range append([]string{coord.URL}, urls...) {
		scrape := getText(t, base+"/metrics")
		for _, series := range runtimeSeries {
			if !strings.Contains(scrape, series) {
				t.Errorf("%s/metrics missing %s", base, series)
			}
		}
	}
}
