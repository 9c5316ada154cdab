package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/cluster"
	"simjoin/internal/jointest"
)

// TestClusterSelfJoinMatchesSingleNode is the subsystem's acceptance
// test: a distributed self-join over three real workers must return
// exactly the pair set of a single node's ekdb join: the brute-force one. Both tiers also take the request
// with the retired "float32" field set: old clients still get a 200, and
// the field is ignored — the answer is the same exact pair set.
func TestClusterSelfJoinMatchesSingleNode(t *testing.T) {
	const (
		n, dims = 400, 6
		eps     = 0.3
		margin  = 0.35
	)
	coord := stack(t, spec{workers: 3, margin: margin})
	worker := stack(t, spec{})
	pts := jointest.UniformPoints(n, dims, 101)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)
	doJSON(t, http.MethodPut, worker.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)

	want := jointest.SelfPairs(pts, eps)
	if len(want) == 0 {
		t.Fatal("oracle found no pairs — test parameters are vacuous")
	}

	for _, tier := range []*testStack{coord, worker} {
		for _, req := range []map[string]any{
			{"eps": eps, "algorithm": "ekdb"},
			{"eps": eps, "algorithm": "ekdb", "float32": true},
		} {
			got, body := joinPairs(t, tier.URL+"/datasets/d/selfjoin", req)
			if !reflect.DeepEqual(got, want) || body["total"] != float64(len(want)) {
				t.Fatalf("selfjoin %v differs from single node: got %d pairs (total %v), want %d", req, len(got), body["total"], len(want))
			}
			if tier != coord {
				continue
			}
			if body["partial"] != false {
				t.Fatalf("healthy cluster returned partial result: %v", body)
			}
			if int(body["shards"].(float64)) < 2 {
				t.Fatalf("join used %v shards — data was not distributed", body["shards"])
			}
		}
	}
}

// TestClusterSelfJoinPartialOnDeadWorker is the degradation half of the
// acceptance criteria: with one worker killed the coordinator still
// answers, tagged partial with the failed shard named.
func TestClusterSelfJoinPartialOnDeadWorker(t *testing.T) {
	coord := stack(t, spec{workers: 3, margin: 0.35})
	pts := jointest.UniformPoints(300, 4, 202)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)

	fullPairs, _ := joinPairs(t, coord.URL+"/datasets/d/selfjoin", map[string]any{"eps": 0.25})

	coord.Kill(1)
	partial, body := joinPairs(t, coord.URL+"/datasets/d/selfjoin", map[string]any{"eps": 0.25})
	if body["partial"] != true {
		t.Fatalf("want partial=true with a dead worker, got %v", body)
	}
	failed, ok := body["failed_shards"].([]any)
	if !ok || len(failed) == 0 {
		t.Fatalf("failed_shards missing: %v", body)
	}
	named := false
	for _, f := range failed {
		fs := f.(map[string]any)
		if fs["url"] == coord.workers[1] && fs["error"] != "" {
			named = true
		}
	}
	if !named {
		t.Fatalf("failed_shards %v does not name the dead worker %s", failed, coord.workers[1])
	}
	// Whatever survived must be a subset of the full pair set.
	fullSet := make(map[[2]int]bool, len(fullPairs))
	for _, p := range fullPairs {
		fullSet[p] = true
	}
	if len(partial) >= len(fullPairs) {
		t.Fatalf("partial result has %d pairs, full had %d — shard 1 contributed nothing?", len(partial), len(fullPairs))
	}
	for _, p := range partial {
		if !fullSet[p] {
			t.Fatalf("partial result invented pair %v", p)
		}
	}
}

func TestClusterRangeAndKNNMatchSingleNode(t *testing.T) {
	coord := stack(t, spec{workers: 4, margin: 0.2})
	pts := jointest.UniformPoints(350, 3, 303)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)
	nn := simjoin.NewNeighborIndex(simjoin.FromPoints(pts))
	q := []float64{0.4, 0.6, 0.5}

	// Range, with a radius larger than the margin: routing covers every
	// slab the ball touches regardless of the replication width.
	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/range",
		map[string]any{"point": q, "radius": 0.45}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %v", resp.StatusCode, body)
	}
	got := []int{}
	for _, v := range body["indexes"].([]any) {
		got = append(got, int(v.(float64)))
	}
	want := nn.Range(q, simjoin.L2, 0.45)
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster range = %d hits, single node = %d", len(got), len(want))
	}

	// KNN across all shards; k beyond the dataset answers every point
	// and no shard may size anything by it.
	for _, k := range []int{12, 1 << 40} {
		resp, body = doJSON(t, http.MethodPost, coord.URL+"/datasets/d/knn",
			map[string]any{"point": q, "k": k}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knn k=%d: %d %v", k, resp.StatusCode, body)
		}
		gotN := body["neighbors"].([]any)
		wantN := nn.KNN(q, min(k, len(pts)), simjoin.L2)
		if len(gotN) != len(wantN) {
			t.Fatalf("knn k=%d returned %d neighbors, want %d", k, len(gotN), len(wantN))
		}
		for i := range wantN {
			g := gotN[i].(map[string]any)
			if int(g["index"].(float64)) != wantN[i].Index {
				t.Fatalf("knn k=%d [%d] = %v, want index %d", k, i, g, wantN[i].Index)
			}
		}
	}

	// Queries on every cut and on every replica strip's top, under each
	// metric: a shard answering alone must not lose a match. The map is
	// the coordinator's: Partition is deterministic in the points.
	sm, _ := cluster.Partition(pts, make([]string, 4), 0.2)
	covered := 0
	for _, cut := range sm.Cuts {
		for _, x := range []float64{cut, cut + sm.Margin} {
			p := append([]float64(nil), q...)
			p[sm.Dim] = x
			for _, m := range []simjoin.Metric{simjoin.L2, simjoin.L1, simjoin.Linf} {
				for _, r := range []float64{0.05, 0.3} {
					resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/range",
						map[string]any{"point": p, "radius": r, "metric": m.String()}, 0)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("range: %d %v", resp.StatusCode, body)
					}
					got := []int{}
					for _, v := range body["indexes"].([]any) {
						got = append(got, int(v.(float64)))
					}
					want := append([]int{}, nn.Range(p, m, r)...)
					sort.Ints(want)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("cluster range(%v, %g, %v) = %v, single node = %v", p, r, m, got, want)
					}
					// One shard stores [Cuts[s−1], Cuts[s]+Margin); when one
					// holds the whole ball the journal shows it asked alone.
					for s := 0; s <= len(sm.Cuts); s++ {
						if (s == 0 || x-r >= sm.Cuts[s-1]) && (s == len(sm.Cuts) || x+r < sm.Cuts[s]+sm.Margin) {
							covered++
							if rec := getQueries(t, coord.URL, "?limit=1").Queries[0]; rec.Kind != "range" || rec.Shards != 1 {
								t.Fatalf("range(%v, %g) is covered by shard %d, journal = %+v", p, r, s, rec)
							}
							break
						}
					}
				}
				resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/knn",
					map[string]any{"point": p, "k": 7, "metric": m.String()}, 0)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("knn: %d %v", resp.StatusCode, body)
				}
				gotN := body["neighbors"].([]any)
				wantN := nn.KNN(p, 7, m)
				for i := range wantN {
					if g := gotN[i].(map[string]any); int(g["index"].(float64)) != wantN[i].Index || g["dist"].(float64) != wantN[i].Dist {
						t.Fatalf("knn(%v, %v) [%d] = %v, want %+v", p, m, i, g, wantN[i])
					}
				}
			}
		}
	}
	if covered == 0 {
		t.Fatal("no query was covered by one shard")
	}
}

func TestClusterCSVUploadAndList(t *testing.T) {
	coord := stack(t, spec{workers: 2, margin: 0.2})
	resp, info := doJSON(t, http.MethodPut, coord.URL+"/datasets/c",
		[]byte("0,0\n0.1,0\n0.9,0.9\n"), 0, "Content-Type", "text/csv")
	if resp.StatusCode != http.StatusOK || info["len"].(float64) != 3 || info["dims"].(float64) != 2 {
		t.Fatalf("CSV upload via coordinator: %d %v", resp.StatusCode, info)
	}
	r2, _ := doJSON(t, http.MethodGet, coord.URL+"/datasets", nil, 0)
	var list []map[string]any
	_ = json.NewDecoder(r2.Body).Decode(&list)
	if len(list) != 1 || list[0]["name"] != "c" || list[0]["len"].(float64) != 3 {
		t.Fatalf("coordinator list = %v", list)
	}
}

// TestClusterUploadRejectsUnusablePoints: the coordinator's upload goes
// through the same decoder as a worker's, so neither NaN nor a point
// without coordinates ever reaches a shard.
func TestClusterUploadRejectsUnusablePoints(t *testing.T) {
	coord := stack(t, spec{workers: 2, margin: 0.2})
	resp, body := doJSON(t, http.MethodPut, coord.URL+"/datasets/c",
		[]byte("0,0\n0.1,0\nNaN,0.9\n"), 0, "Content-Type", "text/csv")
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "data row 3") {
		t.Fatalf("PUT through the coordinator: %d %v, want 400 naming data row 3", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPut, coord.URL+"/datasets/c",
		map[string]any{"points": [][]float64{{}}}, 0)
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "point 0 has 0 dims") {
		t.Fatalf("PUT of a zero-dimensional point through the coordinator: %d %v, want 400 naming point 0", resp.StatusCode, body)
	}
	for _, base := range []string{coord.URL, coord.workers[0], coord.workers[1]} {
		resp, _ := doJSON(t, http.MethodGet, base+"/datasets", nil, 0)
		var list []map[string]any
		err := json.NewDecoder(resp.Body).Decode(&list)
		if err != nil || len(list) != 0 {
			t.Errorf("%s holds %v after a refused upload (%v)", base, list, err)
		}
	}
}

func TestClusterErrorPaths(t *testing.T) {
	coord := stack(t, spec{workers: 2, margin: 0.2})
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(40, 2, 404)}, http.StatusOK)

	// eps beyond the shard margin is rejected, not silently wrong.
	resp, body := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/selfjoin", map[string]any{"eps": 0.9}, 0)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"].(string), "margin") {
		t.Fatalf("eps > margin: %d %v", resp.StatusCode, body)
	}
	// Unknown dataset.
	resp, _ = doJSON(t, http.MethodPost, coord.URL+"/datasets/nope/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing dataset: %d", resp.StatusCode)
	}
	// Endpoints the cluster does not distribute.
	resp, _ = doJSON(t, http.MethodPost, coord.URL+"/join", map[string]any{"a": "d", "b": "d", "eps": 0.1}, 0)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/join in coordinator mode: %d", resp.StatusCode)
	}
	// Appends are distributed now: the batch routes to its shards and
	// the reported length grows.
	resp, appended := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points",
		map[string]any{"points": [][]float64{{1, 2}}}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append in coordinator mode: %d", resp.StatusCode)
	}
	if n, _ := appended["len"].(float64); n < 2 {
		t.Fatalf("appended len = %v, want growth", appended["len"])
	}
	resp, _ = doJSON(t, http.MethodPost, coord.URL+"/datasets/missing/points",
		map[string]any{"points": [][]float64{{1, 2}}}, 0)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to missing dataset: %d", resp.StatusCode)
	}
	// Deleting through the coordinator clears every worker.
	dresp, _ := doJSON(t, http.MethodDelete, coord.URL+"/datasets/d", nil, 0)
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("coordinator delete: %d", dresp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, coord.URL+"/datasets/d/selfjoin", map[string]any{"eps": 0.1}, 0)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("selfjoin after delete: %d", resp.StatusCode)
	}
}

func TestCoordinatorHealthzDegrades(t *testing.T) {
	coord := stack(t, spec{workers: 3, margin: 0.2})
	_, body := doJSON(t, http.MethodGet, coord.URL+"/healthz", nil, 0)
	if body["status"] != "ok" {
		t.Fatalf("healthy cluster healthz = %v", body)
	}
	if ws := body["workers"].([]any); len(ws) != 3 {
		t.Fatalf("workers = %v", ws)
	}

	coord.Kill(0)
	_, body = doJSON(t, http.MethodGet, coord.URL+"/healthz", nil, 0)
	if body["status"] != "degraded" {
		t.Fatalf("healthz with dead worker = %v", body)
	}
}
