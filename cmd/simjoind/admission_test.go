package main

import (
	"math/rand"
	"net/http"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/jointest"
)

// densePoints is a workload where nearly every pair joins at a generous
// eps: one tight Gaussian blob.
func densePoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{0.5 + rng.NormFloat64()*0.01, 0.5 + rng.NormFloat64()*0.01}
	}
	return pts
}

// TestWorkerAdmissionControl: a self-join whose estimated result size
// exceeds -max-pairs must be refused with 429 (estimate in the body),
// the same request with "degrade" must return the exact count without
// pairs, and an under-budget request must run normally.
func TestWorkerAdmissionControl(t *testing.T) {
	const budget = 100
	ts := stack(t, spec{maxPairs: budget})
	pts := densePoints(60, 1) // all pairs join at eps 1: 60·59/2 = 1770 ≫ budget
	doJSON(t, http.MethodPut, ts.URL+"/datasets/dense", api.Points{Points: pts}, http.StatusOK)

	// Over budget, no degrade: 429 carrying the estimate.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/dense/selfjoin", map[string]any{"eps": 1.0}, 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d, want 429 (%v)", resp.StatusCode, body)
	}
	est, ok := body["estimated_pairs"].(float64)
	if !ok || est <= budget {
		t.Fatalf("429 body estimated_pairs = %v, want > %d", body["estimated_pairs"], budget)
	}
	if mp, ok := body["max_pairs"].(float64); !ok || int64(mp) != budget {
		t.Fatalf("429 body max_pairs = %v, want %d", body["max_pairs"], budget)
	}

	// Same request with degrade: counting-only run, exact total, no pairs.
	want := int64(len(jointest.SelfPairs(pts, 1.0)))
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/dense/selfjoin",
		map[string]any{"eps": 1.0, "degrade": true}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status = %d (%v)", resp.StatusCode, body)
	}
	if body["degraded"] != true {
		t.Fatalf("degraded flag missing: %v", body)
	}
	if got := int64(body["total"].(float64)); got != want {
		t.Fatalf("degraded total = %d, want exact %d", got, want)
	}
	if n := len(body["pairs"].([]any)); n != 0 {
		t.Fatalf("degraded run returned %d pairs, want none", n)
	}
	if got := int64(body["estimated_pairs"].(float64)); got <= budget {
		t.Fatalf("degraded estimated_pairs = %d, want > %d", got, budget)
	}

	// Under budget: the identical route with a tiny eps runs normally
	// and still reports the (sketch-served) estimate.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/dense/selfjoin", map[string]any{"eps": 1e-9}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-budget status = %d (%v)", resp.StatusCode, body)
	}
	if body["degraded"] == true {
		t.Fatal("under-budget request was degraded")
	}
	if _, ok := body["estimated_pairs"].(float64); !ok {
		t.Fatalf("under-budget response carries no estimated_pairs: %v", body)
	}
}

// TestWorkerTwoSetAdmission: the /join route prices against both
// sketches and enforces the same budget.
func TestWorkerTwoSetAdmission(t *testing.T) {
	ts := stack(t, spec{maxPairs: 50})
	a := densePoints(40, 2)
	b := densePoints(40, 3)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: a}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b", api.Points{Points: b}, http.StatusOK)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/join",
		map[string]any{"a": "a", "b": "b", "eps": 1.0}, 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget two-set status = %d (%v)", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/join",
		map[string]any{"a": "a", "b": "b", "eps": 1.0, "degrade": true}, 0)
	if resp.StatusCode != http.StatusOK || body["degraded"] != true {
		t.Fatalf("degraded two-set: %d %v", resp.StatusCode, body)
	}
	if got := int64(body["total"].(float64)); got != 40*40 {
		t.Fatalf("degraded two-set total = %d, want %d", got, 40*40)
	}
}

// TestWorkerEstimateEndpoint: GET /datasets/{name}?eps= must answer
// with the sketch-served prediction and the sketch's metadata.
func TestWorkerEstimateEndpoint(t *testing.T) {
	ts := stack(t, spec{})
	pts := densePoints(50, 4)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/datasets/d?eps=1.0", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, body)
	}
	sk, ok := body["sketch"].(map[string]any)
	if !ok || sk["points"].(float64) != 50 {
		t.Fatalf("sketch block = %v", body["sketch"])
	}
	est, ok := body["estimate"].(map[string]any)
	if !ok {
		t.Fatalf("no estimate block: %v", body)
	}
	// 50 tightly clustered points at eps 1: everything joins, and below
	// the reservoir size the sketch is exact.
	if got := int64(est["pairs"].(float64)); got != 50*49/2 {
		t.Fatalf("estimated pairs = %d, want %d", got, 50*49/2)
	}

	// Bad eps is a 400, not a silent omission.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/datasets/d?eps=-1", nil, 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("eps=-1 status = %d, want 400", resp.StatusCode)
	}
}

// TestCoordinatorAdmissionControl: the coordinator prices a distributed
// self-join by scattering per-shard estimates, refuses over-budget
// queries with 429, degrades on request to an exact merged count, and
// passes under-budget queries through untouched.
func TestCoordinatorAdmissionControl(t *testing.T) {
	const budget = 100
	coord := stack(t, spec{workers: 3, margin: 1.0, maxPairs: budget})
	pts := jointest.UniformPoints(120, 2, 7) // uniform in [0,1]²; eps 0.9 joins nearly all pairs
	doJSON(t, http.MethodPut, coord.URL+"/datasets/g", api.Points{Points: pts}, http.StatusOK)

	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/g/selfjoin", map[string]any{"eps": 0.9}, 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d (%v)", resp.StatusCode, body)
	}
	if est, ok := body["estimated_pairs"].(float64); !ok || est <= budget {
		t.Fatalf("429 body estimated_pairs = %v, want > %d", body["estimated_pairs"], budget)
	}

	want := int64(len(jointest.SelfPairs(pts, 0.9)))
	resp, body = doJSON(t, http.MethodPost, coord.URL+"/datasets/g/selfjoin",
		map[string]any{"eps": 0.9, "degrade": true}, 0)
	if resp.StatusCode != http.StatusOK || body["degraded"] != true {
		t.Fatalf("degraded: %d %v", resp.StatusCode, body)
	}
	if got := int64(body["total"].(float64)); got != want {
		t.Fatalf("degraded total = %d, want exact %d", got, want)
	}

	resp, body = doJSON(t, http.MethodPost, coord.URL+"/datasets/g/selfjoin", map[string]any{"eps": 0.001}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-budget status = %d (%v)", resp.StatusCode, body)
	}
	if body["degraded"] == true {
		t.Fatal("under-budget request was degraded")
	}
}

// TestCoordinatorEstimateEndpoint: GET /datasets/{name}?eps= through
// the coordinator gathers one estimate per shard.
func TestCoordinatorEstimateEndpoint(t *testing.T) {
	coord := stack(t, spec{workers: 3, margin: 1.0})
	pts := jointest.UniformPoints(90, 2, 9)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/e", api.Points{Points: pts}, http.StatusOK)

	resp, body := doJSON(t, http.MethodGet, coord.URL+"/datasets/e?eps=0.5", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, body)
	}
	est, ok := body["estimate"].(map[string]any)
	if !ok {
		t.Fatalf("no estimate block: %v", body)
	}
	if est["pairs"].(float64) <= 0 {
		t.Fatalf("summed estimate = %v, want > 0", est["pairs"])
	}
	shards, ok := est["shard_estimates"].([]any)
	if !ok || len(shards) == 0 {
		t.Fatalf("shard_estimates = %v", est["shard_estimates"])
	}
	var sum float64
	for _, raw := range shards {
		sum += raw.(map[string]any)["pairs"].(float64)
	}
	if sum != est["pairs"].(float64) {
		t.Fatalf("summed estimate %v, shard estimates add to %v", est["pairs"], sum)
	}
}
