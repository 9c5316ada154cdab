package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/store"
)

// newPersistentServer builds a worker teeing through a catalog on dir,
// as `simjoind -data dir` would. The catalog is NOT closed on cleanup —
// abandoning it mid-flight is exactly the hard-kill the recovery tests
// simulate.
func newPersistentServer(t *testing.T, dir string, opt store.Options) (*httptest.Server, *server) {
	t.Helper()
	srv := newServer()
	opt.Hooks = storeHooks(srv.m)
	cat, err := store.Open(dir, opt)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	srv.attachStore(cat)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// selfJoinPairs runs a selfjoin and returns its pair set in a canonical
// order.
func selfJoinPairs(t *testing.T, base, name string, eps float64) [][2]int {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/datasets/"+name+"/selfjoin", map[string]any{"eps": eps})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin %s: %d %v", name, resp.StatusCode, body)
	}
	raw := body["pairs"].([]any)
	out := make([][2]int, len(raw))
	for i, p := range raw {
		pp := p.([]any)
		out[i] = [2]int{int(pp[0].(float64)), int(pp[1].(float64))}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func listDatasets(t *testing.T, base string) map[string][2]int {
	t.Helper()
	resp, err := http.Get(base + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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
	dir := t.TempDir()
	ts1, _ := newPersistentServer(t, dir, store.Options{})

	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{float64(i%6) / 10, float64(i%5) / 10}
	}
	putPoints(t, ts1.URL, "a", pts)
	putPoints(t, ts1.URL, "b", [][]float64{{0, 0, 0}, {1, 1, 1}})
	for i := 0; i < 4; i++ {
		resp, body := doJSON(t, http.MethodPost, ts1.URL+"/datasets/a/points",
			map[string]any{"points": [][]float64{{float64(i) / 100, 0.05}, {0.9, float64(i) / 100}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: %d %v", i, resp.StatusCode, body)
		}
	}
	wantList := listDatasets(t, ts1.URL)
	wantPairs := selfJoinPairs(t, ts1.URL, "a", 0.07)
	if wantList["a"][0] != 38 {
		t.Fatalf("pre-kill list = %v, want a with 38 points", wantList)
	}
	if len(wantPairs) == 0 {
		t.Fatal("selfjoin found no pairs; the fixture is too sparse to prove anything")
	}
	ts1.Close() // hard kill: catalog abandoned with files un-closed

	ts2, srv2 := newPersistentServer(t, dir, store.Options{})
	if got := listDatasets(t, ts2.URL); fmt.Sprint(got) != fmt.Sprint(wantList) {
		t.Fatalf("restarted list = %v, want %v", got, wantList)
	}
	if got := selfJoinPairs(t, ts2.URL, "a", 0.07); fmt.Sprint(got) != fmt.Sprint(wantPairs) {
		t.Fatalf("restarted selfjoin = %v, want %v", got, wantPairs)
	}
	rec := srv2.rec
	if len(rec.Datasets) != 2 || rec.Records() != 6 { // 2 puts + 4 appends
		t.Fatalf("recovery info = %+v", rec)
	}
}

// TestPersistenceTornTailRecovery tears the WAL mid-record underneath a
// killed worker; the restarted worker serves the valid prefix.
func TestPersistenceTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ts1, _ := newPersistentServer(t, dir, store.Options{})
	putPoints(t, ts1.URL, "a", [][]float64{{0, 0}, {1, 1}, {2, 2}})
	resp, _ := doJSON(t, http.MethodPost, ts1.URL+"/datasets/a/points",
		map[string]any{"points": [][]float64{{3, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("append failed")
	}
	ts1.Close()

	walPath := filepath.Join(dir, "a", "wal.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	ts2, srv2 := newPersistentServer(t, dir, store.Options{})
	if got := listDatasets(t, ts2.URL); got["a"] != [2]int{3, 2} {
		t.Fatalf("after torn tail: %v, want the 3-point put", got)
	}
	if srv2.rec.TruncatedTails() != 1 {
		t.Fatalf("recovery = %+v, want one truncated tail", srv2.rec)
	}
}

func TestPersistenceDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _ := newPersistentServer(t, dir, store.Options{})
	putPoints(t, ts1.URL, "keep", [][]float64{{0, 0}})
	putPoints(t, ts1.URL, "drop", [][]float64{{1, 1}})
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/datasets/drop", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	ts1.Close()

	ts2, _ := newPersistentServer(t, dir, store.Options{})
	got := listDatasets(t, ts2.URL)
	if len(got) != 1 || got["keep"] != [2]int{1, 2} {
		t.Fatalf("after restart: %v, want only keep", got)
	}
}

// TestPersistenceMetricsTracesHealthz asserts the observability surface
// the acceptance criteria name: store metrics in /metrics, store spans
// in /debug/traces, recovery state in /healthz.
func TestPersistenceMetricsTracesHealthz(t *testing.T) {
	dir := t.TempDir()
	// A tiny compaction threshold so snapshot + compaction fire too.
	ts, _ := newPersistentServer(t, dir, store.Options{CompactBytes: 64})
	putPoints(t, ts.URL, "a", [][]float64{{0, 0}, {1, 1}})
	for i := 0; i < 5; i++ {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
			map[string]any{"points": [][]float64{{float64(i), float64(i)}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d failed", i)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metricsText := string(mbody)
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

	tresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	for _, span := range []string{"store.put", "store.append", "store.wal.append", "store.compact", "store.snapshot"} {
		if !strings.Contains(string(tbody), span) {
			t.Errorf("/debug/traces missing span %q", span)
		}
	}

	hresp, hbody := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
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
	ts, _ := newPersistentServer(t, t.TempDir(), store.Options{})
	for _, name := range []string{".hidden", "a%2Fb", "sp%20ace"} {
		resp, body := doJSON(t, http.MethodPut, ts.URL+"/datasets/"+name, map[string]any{"points": [][]float64{{1}}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %q: status %d %v, want 400", name, resp.StatusCode, body)
		}
	}
}

// TestMaxBodyBytesFlag: the upload cap is configurable per server and
// oversized bodies fail cleanly on every decode path.
func TestMaxBodyBytesFlag(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	srv := httptest.NewServer(func() http.Handler {
		s := newServer()
		s.maxBody = 64
		return s.handler()
	}())
	defer srv.Close()

	big := make([][]float64, 50)
	for i := range big {
		big[i] = []float64{float64(i), float64(i)}
	}
	// Under the default cap this upload succeeds…
	putPoints(t, ts.URL, "a", big)
	// …but the 64-byte server refuses it.
	resp, body := doJSON(t, http.MethodPut, srv.URL+"/datasets/a", map[string]any{"points": big})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized PUT: %d %v, want 400", resp.StatusCode, body)
	}
	if _, ok := body["error"]; !ok {
		t.Fatalf("no error field: %v", body)
	}
}
