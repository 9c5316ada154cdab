package main

import (
	"net/http"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/jointest"
)

func TestMetricsEndpointWorker(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {1, 1}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}
	// One error to land in the error counter.
	doJSON(t, http.MethodPost, ts.URL+"/datasets/zzz/selfjoin", map[string]any{"eps": 0.1}, 0)
	// Two point queries: the first builds the point index, the second
	// reuses it.
	for range 2 {
		resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range",
			map[string]any{"point": []float64{0, 0}, "radius": 0.1}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("range: %d %v", resp.StatusCode, body)
		}
	}

	text := getText(t, ts.URL+"/metrics")
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
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {1, 1}}}, http.StatusOK)
	// One error: selfjoin on a missing dataset.
	doJSON(t, http.MethodPost, ts.URL+"/datasets/zzz/selfjoin", map[string]any{"eps": 0.1}, 0)

	text := getText(t, ts.URL+"/metrics")
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
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}}}, http.StatusOK)
	doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin",
		[]byte(`{"eps":0.1,"stream":true}`), 0, "Content-Type", "application/json")

	text := getText(t, ts.URL+"/metrics")
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
	coord := stack(t, spec{workers: 2, margin: 0.25})
	doJSON(t, http.MethodPut, coord.URL+"/datasets/pts",
		api.Points{Points: jointest.UniformPoints(60, 3, 5)}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/pts/selfjoin",
		map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}

	text := getText(t, coord.URL+"/metrics")
	for _, want := range []string{
		`simjoind_requests_total{route="POST /datasets/{name}/selfjoin"} 1`,
		`simjoind_fanout_duration_seconds_count{op="selfjoin"} 1`,
		`simjoind_fanout_duration_seconds_count{op="upload"} 1`,
		`simjoind_rclient_retries_total 0`,
		`simjoind_worker_up{worker="` + coord.workers[0] + `"} 1`,
		`simjoind_worker_up{worker="` + coord.workers[1] + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator metrics missing %q\n---\n%s", want, text)
		}
	}

	// A dead worker flips its up gauge on the next scrape.
	coord.Kill(1)
	text = getText(t, coord.URL+"/metrics")
	if !strings.Contains(text, `simjoind_worker_up{worker="`+coord.workers[1]+`"} 0`) {
		t.Errorf("dead worker still reported up\n---\n%s", text)
	}
}

func TestPprofMountedOnlyWithDebug(t *testing.T) {
	plain := stack(t, spec{})
	resp, _ := doJSON(t, http.MethodGet, plain.URL+"/debug/pprof/cmdline", nil, 0)
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -debug")
	}

	dbg := stack(t, spec{tune: func(s *server) { s.debug = true }})
	resp, _ = doJSON(t, http.MethodGet, dbg.URL+"/debug/pprof/cmdline", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -debug: %d", resp.StatusCode)
	}
}
