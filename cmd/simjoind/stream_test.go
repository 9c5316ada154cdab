package main

import (
	"net/http"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/jointest"
)

// TestSelfJoinStream checks the worker's NDJSON self-join: same pairs as
// the buffered answer, delivered line by line with a closing summary.
func TestSelfJoinStream(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.9}}}, http.StatusOK)

	want, _ := joinPairs(t, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1})

	got, summary := joinPairs(t, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1, "stream": true})
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	if summary["total"].(float64) != float64(len(want)) || summary["truncated"] != false {
		t.Fatalf("summary = %v", summary)
	}
	if _, ok := summary["elapsed_ms"]; !ok {
		t.Fatalf("summary missing elapsed_ms: %v", summary)
	}

	// max_pairs caps the stream and marks the summary truncated.
	got, summary = joinPairs(t, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1, "stream": true, "max_pairs": 1})
	if len(got) != 1 || summary["truncated"] != true {
		t.Fatalf("truncated stream: %d pairs, summary %v", len(got), summary)
	}
}

// TestSelfJoinStreamParallel runs the streaming route with Workers>1 over
// a workload big enough to exercise the funnel, against the buffered
// serial answer.
func TestSelfJoinStreamParallel(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/big",
		api.Points{Points: jointest.UniformPoints(500, 4, 77)}, http.StatusOK)

	want, _ := joinPairs(t, ts.URL+"/datasets/big/selfjoin", map[string]any{"eps": 0.25})
	if len(want) == 0 {
		t.Fatal("degenerate workload")
	}
	got, summary := joinPairs(t, ts.URL+"/datasets/big/selfjoin",
		map[string]any{"eps": 0.25, "stream": true, "workers": 4})
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	if summary["total"].(float64) != float64(len(want)) {
		t.Fatalf("summary total = %v, want %d", summary["total"], len(want))
	}
}

// TestTwoSetJoinStream checks the /join route's NDJSON variant.
func TestTwoSetJoinStream(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {5, 5}}}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b",
		api.Points{Points: [][]float64{{0.05, 0}, {9, 9}}}, http.StatusOK)
	got, summary := joinPairs(t, ts.URL+"/join",
		map[string]any{"a": "a", "b": "b", "eps": 0.1, "stream": true})
	if len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("pairs = %v", got)
	}
	if summary["total"].(float64) != 1 {
		t.Fatalf("summary = %v", summary)
	}
}

// TestStreamValidationStillErrors: a streaming request that fails
// validation must answer a plain JSON error, not an empty stream.
func TestStreamValidationStillErrors(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {1, 1}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin",
		map[string]any{"eps": -1, "stream": true}, 0)
	if resp.StatusCode != http.StatusBadRequest || body["error"] == nil {
		t.Fatalf("bad-eps stream: %d %v", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/missing/selfjoin",
		map[string]any{"eps": 0.1, "stream": true}, 0)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing dataset stream: %d %v", resp.StatusCode, body)
	}
}

// TestClusterSelfJoinStream is the distributed end of the streaming path:
// the coordinator's NDJSON answer over real workers must carry exactly
// the brute-force pair set a single node answers, plus the cluster
// fields in its summary.
func TestClusterSelfJoinStream(t *testing.T) {
	const (
		n, dims = 400, 5
		eps     = 0.25
		margin  = 0.3
	)
	coord := stack(t, spec{workers: 3, margin: margin})
	pts := jointest.UniformPoints(n, dims, 404)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)

	want := jointest.SelfPairs(pts, eps)
	if len(want) == 0 {
		t.Fatal("degenerate workload")
	}

	got, summary := joinPairs(t, coord.URL+"/datasets/d/selfjoin",
		map[string]any{"eps": eps, "stream": true})
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	if summary["total"].(float64) != float64(len(want)) || summary["partial"] != false {
		t.Fatalf("summary = %v", summary)
	}
	if int(summary["shards"].(float64)) < 2 {
		t.Fatalf("streamed join used %v shards — data was not distributed", summary["shards"])
	}
}
