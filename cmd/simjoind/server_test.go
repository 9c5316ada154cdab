package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/store"
)

func TestUploadListDelete(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {1, 1}}}, http.StatusOK)

	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/datasets", nil, 0)
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0]["name"] != "a" || list[0]["len"].(float64) != 2 {
		t.Fatalf("list = %v", list)
	}

	dresp, _ := doJSON(t, http.MethodDelete, ts.URL+"/datasets/a", nil, 0)
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	dresp2, _ := doJSON(t, http.MethodDelete, ts.URL+"/datasets/a", nil, 0)
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status %d", dresp2.StatusCode)
	}
}

func TestUploadCSV(t *testing.T) {
	ts := stack(t, spec{})
	resp, info := doJSON(t, http.MethodPut, ts.URL+"/datasets/c",
		[]byte("0,0\n0.5,0.5\n"), 0, "Content-Type", "text/csv")
	if resp.StatusCode != http.StatusOK || info["len"].(float64) != 2 || info["dims"].(float64) != 2 {
		t.Fatalf("CSV upload: %d %v", resp.StatusCode, info)
	}
}

// TestUploadRejectsUnusablePoints: the CSV float parser takes NaN and
// Inf, which no distance can be computed from and no JSON answer can
// carry, and JSON can spell a point with no coordinates, which no dataset
// can hold; the upload is refused naming the row, and nothing is
// registered.
func TestUploadRejectsUnusablePoints(t *testing.T) {
	ts := stack(t, spec{})
	for _, rows := range []string{"0,0\n1,NaN\n", "0,0\n# skipped\n-Inf,1\n", "0,0\n1,+inf\n"} {
		resp, body := doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
			[]byte(rows), 0, "Content-Type", "text/csv")
		msg, _ := body["error"].(string)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "data row 2") {
			t.Errorf("PUT %q: %d %v, want 400 naming data row 2", rows, resp.StatusCode, body)
		}
	}
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		map[string]any{"points": [][]float64{{}}}, 0)
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "point 0 has 0 dims") {
		t.Errorf("PUT of a zero-dimensional point: %d %v, want 400 naming point 0", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/datasets/a", nil, 0)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("refused upload left a dataset behind: %d", resp.StatusCode)
	}
}

// TestUnencodableAnswerIs500: finite coordinates can still be an
// infinite distance apart; the answer JSON cannot carry is a 500 with an
// error body, not an empty 200.
func TestUnencodableAnswerIs500(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/far",
		api.Points{Points: [][]float64{{1e308}, {-1e308}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/far/knn",
		map[string]any{"point": []float64{1e308}, "k": 2}, 0)
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(msg, "encoding response") {
		t.Fatalf("knn at infinite distance: %d %v", resp.StatusCode, body)
	}
}

func TestSelfJoinEndpoint(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.9}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selfjoin: %d %v", resp.StatusCode, body)
	}
	pairs := body["pairs"].([]any)
	if len(pairs) != 2 || body["total"].(float64) != 2 {
		t.Fatalf("pairs = %v", body)
	}
	// Truncation.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin",
		map[string]any{"eps": 0.1, "max_pairs": 1}, 0)
	if resp.StatusCode != http.StatusOK || len(body["pairs"].([]any)) != 1 || body["truncated"] != true {
		t.Fatalf("truncated selfjoin = %v", body)
	}
	// Algorithm selection passes through.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin",
		map[string]any{"eps": 0.1, "algorithm": "grid", "metric": "L1"}, 0)
	if resp.StatusCode != http.StatusOK || body["total"].(float64) != 2 {
		t.Fatalf("grid/L1 selfjoin = %v", body)
	}
}

func TestTwoSetJoinEndpoint(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {5, 5}}}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b",
		api.Points{Points: [][]float64{{0.05, 0}, {9, 9}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/join",
		map[string]any{"a": "a", "b": "b", "eps": 0.1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %v", resp.StatusCode, body)
	}
	pairs := body["pairs"].([]any)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	got := pairs[0].([]any)
	if got[0].(float64) != 0 || got[1].(float64) != 0 {
		t.Fatalf("pair = %v", got)
	}
}

func TestRangeAndKNNEndpoints(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range",
		map[string]any{"point": []float64{0, 0}, "radius": 0.06}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %v", resp.StatusCode, body)
	}
	if got := body["indexes"].([]any); len(got) != 2 {
		t.Fatalf("range indexes = %v", got)
	}
	// k far beyond the dataset answers all three points; it must not
	// size anything by k (1<<40 neighbors is 16 TB).
	for k, want := range map[int]int{2: 2, 1 << 40: 3} {
		resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/knn",
			map[string]any{"point": []float64{0, 0}, "k": k}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knn k=%d: %d %v", k, resp.StatusCode, body)
		}
		nbrs := body["neighbors"].([]any)
		if len(nbrs) != want {
			t.Fatalf("k=%d: neighbors = %v", k, nbrs)
		}
		first := nbrs[0].(map[string]any)
		if first["index"].(float64) != 0 || first["dist"].(float64) != 0 {
			t.Fatalf("k=%d: nearest = %v", k, first)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: [][]float64{{0, 0}}}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b3",
		api.Points{Points: [][]float64{{0, 0, 0}}}, http.StatusOK)
	for name, call := range map[string]func() (*http.Response, map[string]any){
		"selfjoin missing dataset": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/datasets/nope/selfjoin", map[string]any{"eps": 0.1}, 0)
		},
		"selfjoin zero eps": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin", map[string]any{}, 0)
		},
		"selfjoin bad metric": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin",
				map[string]any{"eps": 0.1, "metric": "cosine"}, 0)
		},
		"join dims mismatch": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/join",
				map[string]any{"a": "a", "b": "b3", "eps": 0.1}, 0)
		},
		"join missing b": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/join",
				map[string]any{"a": "a", "b": "zz", "eps": 0.1}, 0)
		},
		"range dims mismatch": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range",
				map[string]any{"point": []float64{0}, "radius": 0.1}, 0)
		},
		"range zero radius": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range",
				map[string]any{"point": []float64{0, 0}}, 0)
		},
		"knn zero k": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/datasets/a/knn",
				map[string]any{"point": []float64{0, 0}}, 0)
		},
		"upload empty": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPut, ts.URL+"/datasets/x", map[string]any{"points": [][]float64{}}, 0)
		},
		"upload ragged": func() (*http.Response, map[string]any) {
			return doJSON(t, http.MethodPut, ts.URL+"/datasets/x",
				map[string]any{"points": []any{[]float64{1}, []float64{1, 2}}}, 0)
		},
	} {
		resp, body := call()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d, want 4xx", name, resp.StatusCode)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: no error field: %v", name, body)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts := stack(t, spec{})
	pts := make([][]float64, 500)
	for i := range pts {
		pts[i] = []float64{float64(i%25) / 25, float64(i%20) / 20}
	}
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: pts}, http.StatusOK)
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 3; q++ {
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/knn",
					map[string]any{"point": []float64{0.3, 0.3}, "k": 3}, 0)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: %d %v", w, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestAppendPointsInvalidatesIndex(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: [][]float64{{0, 0}}}, http.StatusOK)
	// Warm the index via a query, then append a point next to the origin.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/knn",
		map[string]any{"point": []float64{0, 0}, "k": 1}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn: %d %v", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
		map[string]any{"points": [][]float64{{0.01, 0}, {9, 9}}}, 0)
	if resp.StatusCode != http.StatusOK || body["len"].(float64) != 3 {
		t.Fatalf("append: %d %v", resp.StatusCode, body)
	}
	// The new point must be visible in queries.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range",
		map[string]any{"point": []float64{0, 0}, "radius": 0.05}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %v", resp.StatusCode, body)
	}
	if got := body["indexes"].([]any); len(got) != 2 {
		t.Fatalf("post-append range = %v, want origin + appended point", got)
	}
}

// TestAppendPointsErrors: an append of the wrong dims or of no points is
// a 400 and one to a missing dataset a 404, in memory and with -data.
func TestAppendPointsErrors(t *testing.T) {
	for mode, sp := range map[string]spec{"in memory": {}, "-data": {store: &store.Options{}}} {
		t.Run(mode, func(t *testing.T) {
			ts := stack(t, sp)
			doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
				api.Points{Points: [][]float64{{0, 0}}}, http.StatusOK)
			resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
				map[string]any{"points": [][]float64{{1, 2, 3}}}, 0)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("dims mismatch append: status %d", resp.StatusCode)
			}
			resp, _ = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
				map[string]any{"points": [][]float64{}}, 0)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("empty append: status %d", resp.StatusCode)
			}
			resp, _ = doJSON(t, http.MethodPost, ts.URL+"/datasets/zzz/points",
				map[string]any{"points": [][]float64{{1, 2}}}, 0)
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("append to missing dataset: status %d", resp.StatusCode)
			}
		})
	}
}

// TestConcurrentAppendAndQuery hammers appends against joins and KNN
// queries; append-only snapshots must keep every response internally
// consistent (run under -race in CI).
func TestConcurrentAppendAndQuery(t *testing.T) {
	ts := stack(t, spec{})
	init := make([][]float64, 200)
	for i := range init {
		init[i] = []float64{float64(i%10) / 10, float64(i%7) / 7}
	}
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: init}, http.StatusOK)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	wg.Add(1)
	go func() { // appender
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
				map[string]any{"points": [][]float64{{0.33, 0.44}}}, 0)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("append: %d %v", resp.StatusCode, body)
				return
			}
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/selfjoin",
					map[string]any{"eps": 0.05, "max_pairs": 10}, 0)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("selfjoin: %d %v", resp.StatusCode, body)
					return
				}
				resp, body = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/knn",
					map[string]any{"point": []float64{0.3, 0.4}, "k": 3}, 0)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("knn: %d %v", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHealthz(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: [][]float64{{0, 0}}}, http.StatusOK)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, 0)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" || body["datasets"].(float64) != 1 {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
}
