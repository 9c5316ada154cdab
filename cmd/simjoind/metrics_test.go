package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// scrape fetches and returns the /metrics text of a test server.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointWorker(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	putPoints(t, ts.URL, "a", [][]float64{{0, 0}, {0.05, 0}, {1, 1}})
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}
	// One error to land in the error counter.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/datasets/zzz/selfjoin", map[string]any{"eps": 0.1})
	resp.Body.Close()
	// Two point queries: the first builds the point index, the second
	// reuses it.
	for range 2 {
		resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range", map[string]any{"point": []float64{0, 0}, "radius": 0.1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("range: %d %v", resp.StatusCode, body)
		}
	}

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`simjoind_index_rebuilds_total 1`,
		`# TYPE simjoind_index_rebuild_seconds histogram`,
		`simjoind_index_rebuild_seconds_count 1`,
		`simjoind_requests_total{route="PUT /datasets/{name}"} 1`,
		`simjoind_requests_total{route="POST /datasets/{name}/selfjoin"} 2`,
		`simjoind_errors_total{route="POST /datasets/{name}/selfjoin"} 1`,
		`simjoind_request_duration_seconds_count{route="POST /datasets/{name}/selfjoin"} 2`,
		`# TYPE simjoind_request_duration_seconds histogram`,
		`simjoind_request_duration_seconds_bucket{route="POST /datasets/{name}/selfjoin",le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
}

// TestRouteCounters pins the per-route counters exactly: one series per
// route that was hit, and an error series only for the route that failed.
func TestRouteCounters(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	putPoints(t, ts.URL, "a", [][]float64{{0, 0}, {1, 1}})
	// One error: selfjoin on a missing dataset.
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/zzz/selfjoin", map[string]any{"eps": 0.1})
	resp.Body.Close()

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`simjoind_requests_total{route="PUT /datasets/{name}"} 1`,
		`simjoind_requests_total{route="POST /datasets/{name}/selfjoin"} 1`,
		`simjoind_errors_total{route="POST /datasets/{name}/selfjoin"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	if n := strings.Count(text, "\nsimjoind_errors_total{"); n != 1 {
		t.Errorf("%d error series, want only the selfjoin miss\n---\n%s", n, text)
	}
}

func TestMetricsStreamCounters(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	putPoints(t, ts.URL, "a", [][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}})
	resp, err := http.Post(ts.URL+"/datasets/a/selfjoin", "application/json",
		strings.NewReader(`{"eps":0.1,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	text := scrape(t, ts.URL)
	for _, want := range []string{
		// The streamed request is counted by both the route middleware
		// and the dedicated stream counters (2 pairs in this dataset).
		`simjoind_requests_total{route="POST /datasets/{name}/selfjoin"} 1`,
		`simjoind_stream_requests_total{route="POST /datasets/{name}/selfjoin"} 1`,
		`simjoind_stream_pairs_total 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
}

func TestMetricsEndpointCoordinator(t *testing.T) {
	coord, workers := startCluster(t, 2, 0.25)
	putPoints(t, coord.URL, "pts", clusterPoints(60, 3, 5))
	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/pts/selfjoin", map[string]any{"eps": 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}

	text := scrape(t, coord.URL)
	for _, want := range []string{
		`simjoind_requests_total{route="POST /datasets/{name}/selfjoin"} 1`,
		`simjoind_fanout_duration_seconds_count{op="selfjoin"} 1`,
		`simjoind_fanout_duration_seconds_count{op="upload"} 1`,
		`simjoind_rclient_retries_total 0`,
		`simjoind_worker_up{worker="` + workers[0].URL + `"} 1`,
		`simjoind_worker_up{worker="` + workers[1].URL + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator metrics missing %q\n---\n%s", want, text)
		}
	}

	// A dead worker flips its up gauge on the next scrape.
	workers[1].Close()
	text = scrape(t, coord.URL)
	if !strings.Contains(text, `simjoind_worker_up{worker="`+workers[1].URL+`"} 0`) {
		t.Errorf("dead worker still reported up\n---\n%s", text)
	}
}

func TestPprofMountedOnlyWithDebug(t *testing.T) {
	plain := httptest.NewServer(newServer().handler())
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -debug")
	}

	srv := newServer()
	srv.debug = true
	dbg := httptest.NewServer(srv.handler())
	defer dbg.Close()
	resp, err = http.Get(dbg.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -debug: %d", resp.StatusCode)
	}
}
