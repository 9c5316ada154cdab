package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/store"
)

// listDatasets is GET /datasets as name → (len, dims).
func listDatasets(t *testing.T, base string) map[string][2]int {
	t.Helper()
	resp, _ := doJSON(t, http.MethodGet, base+"/datasets", nil, http.StatusOK)
	var list []api.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][2]int, len(list))
	for _, d := range list {
		out[d.Name] = [2]int{d.Len, d.Dims}
	}
	return out
}

// TestPersistenceKillAndRestart is the headline durability guarantee: a
// worker loaded via PUT + several appends, hard-killed (no shutdown, no
// catalog close) and restarted on the same directory serves the
// identical dataset list, lengths, and selfjoin pair set.
func TestPersistenceKillAndRestart(t *testing.T) {
	ts := stack(t, spec{store: &store.Options{}})

	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{float64(i%6) / 10, float64(i%5) / 10}
	}
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: pts}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b",
		api.Points{Points: [][]float64{{0, 0, 0}, {1, 1, 1}}}, http.StatusOK)
	for i := 0; i < 4; i++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
			map[string]any{"points": [][]float64{{float64(i) / 100, 0.05}, {0.9, float64(i) / 100}}}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: %d %v", i, resp.StatusCode, body)
		}
	}
	wantList := listDatasets(t, ts.URL)
	wantPairs, _ := joinPairs(t, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.07})
	if wantList["a"][0] != 38 {
		t.Fatalf("pre-kill list = %v, want a with 38 points", wantList)
	}
	if len(wantPairs) == 0 {
		t.Fatal("selfjoin found no pairs; the fixture is too sparse to prove anything")
	}
	ts.Kill(0) // hard kill: catalog abandoned with files un-closed
	ts.Restart(0)
	if got := listDatasets(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(wantList) {
		t.Fatalf("restarted list = %v, want %v", got, wantList)
	}
	if got, _ := joinPairs(t, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.07}); fmt.Sprint(got) != fmt.Sprint(wantPairs) {
		t.Fatalf("restarted selfjoin = %v, want %v", got, wantPairs)
	}
	rec := ts.srv[0].rec
	if len(rec.Datasets) != 2 || rec.Records() != 6 { // 2 puts + 4 appends
		t.Fatalf("recovery info = %+v", rec)
	}
}

// TestPersistenceTornTailRecovery tears the WAL mid-record underneath a
// killed worker; the restarted worker serves the valid prefix.
func TestPersistenceTornTailRecovery(t *testing.T) {
	ts := stack(t, spec{store: &store.Options{}})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {1, 1}, {2, 2}}}, http.StatusOK)
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
		map[string]any{"points": [][]float64{{3, 3}}}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("append failed")
	}
	ts.Kill(0)

	walPath := filepath.Join(ts.dirs[0], "a", "wal.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	ts.Restart(0)
	if got := listDatasets(t, ts.URL); got["a"] != [2]int{3, 2} {
		t.Fatalf("after torn tail: %v, want the 3-point put", got)
	}
	if rec := ts.srv[0].rec; rec.TruncatedTails() != 1 {
		t.Fatalf("recovery = %+v, want one truncated tail", rec)
	}
}

func TestPersistenceDeleteSurvivesRestart(t *testing.T) {
	ts := stack(t, spec{store: &store.Options{}})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/keep",
		api.Points{Points: [][]float64{{0, 0}}}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/drop",
		api.Points{Points: [][]float64{{1, 1}}}, http.StatusOK)
	dresp, _ := doJSON(t, http.MethodDelete, ts.URL+"/datasets/drop", nil, 0)
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	ts.Kill(0)
	ts.Restart(0)
	got := listDatasets(t, ts.URL)
	if len(got) != 1 || got["keep"] != [2]int{1, 2} {
		t.Fatalf("after restart: %v, want only keep", got)
	}
}

// TestPersistenceMetricsTracesHealthz asserts the observability surface
// the acceptance criteria name: store metrics in /metrics, store spans
// in /debug/traces, recovery state in /healthz.
func TestPersistenceMetricsTracesHealthz(t *testing.T) {
	// A tiny compaction threshold so snapshot + compaction fire too.
	ts := stack(t, spec{store: &store.Options{CompactBytes: 64}})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {1, 1}}}, http.StatusOK)
	for i := 0; i < 5; i++ {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
			map[string]any{"points": [][]float64{{float64(i), float64(i)}}}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d failed", i)
		}
	}

	metricsText := getText(t, ts.URL+"/metrics")
	for _, name := range []string{
		"simjoind_store_wal_append_seconds",
		"simjoind_store_snapshot_seconds",
		"simjoind_store_compaction_seconds",
		"simjoind_store_compactions_total",
		"simjoind_store_fsyncs_total",
		"simjoind_store_wal_appended_bytes_total",
		"simjoind_store_wal_bytes",
	} {
		if !strings.Contains(metricsText, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	m := regexp.MustCompile(`(?m)^simjoind_store_compactions_total (\d+)`).FindStringSubmatch(metricsText)
	if m == nil {
		t.Errorf("compactions counter not exposed:\n%s", grepLines(metricsText, "compactions"))
	} else if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("compactions counter not incremented:\n%s", grepLines(metricsText, "compactions"))
	}

	tbody := getText(t, ts.URL+"/debug/traces")
	for _, span := range []string{"store.put", "store.append", "store.wal.append", "store.compact", "store.snapshot"} {
		if !strings.Contains(tbody, span) {
			t.Errorf("/debug/traces missing span %q", span)
		}
	}

	hresp, hbody := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, 0)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
	p, ok := hbody["persistence"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no persistence block: %v", hbody)
	}
	if p["enabled"] != true || p["wal_bytes"].(float64) < 0 {
		t.Fatalf("persistence block = %v", p)
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestPersistenceRejectsBadNames: names double as directories, so the
// durable worker narrows what PUT accepts.
func TestPersistenceRejectsBadNames(t *testing.T) {
	ts := stack(t, spec{store: &store.Options{}})
	for _, name := range []string{".hidden", "a%2Fb", "sp%20ace"} {
		resp, body := doJSON(t, http.MethodPut, ts.URL+"/datasets/"+name,
			map[string]any{"points": [][]float64{{1}}}, 0)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %q: status %d %v, want 400", name, resp.StatusCode, body)
		}
	}
}

// TestMaxBodyBytesFlag: the upload cap is configurable per server and
// oversized bodies fail cleanly on every decode path.
func TestMaxBodyBytesFlag(t *testing.T) {
	ts := stack(t, spec{})
	srv := stack(t, spec{tune: func(s *server) { s.maxBody = 64 }})

	big := make([][]float64, 50)
	for i := range big {
		big[i] = []float64{float64(i), float64(i)}
	}
	// Under the default cap this upload succeeds…
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: big}, http.StatusOK)
	// …but the 64-byte server refuses it.
	resp, body := doJSON(t, http.MethodPut, srv.URL+"/datasets/a", map[string]any{"points": big}, 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized PUT: %d %v, want 400", resp.StatusCode, body)
	}
	if _, ok := body["error"]; !ok {
		t.Fatalf("no error field: %v", body)
	}
}
