package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/jointest"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/store"
)

// randomPoints draws n points of the unit square.
func randomPoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return pts
}

// TestAppendRangeKNNMatchesBrute appends to a worker — in memory and with
// -data — while readers send range and knn queries, past the point where
// the worker rebuilds its index in the background. Each range answer
// holds exactly the neighbors among some prefix of the dataset that has
// every point acknowledged before the query left and none not yet sent;
// once the appends stop, range and knn answers equal brute force.
func TestAppendRangeKNNMatchesBrute(t *testing.T) {
	for _, mode := range []string{"in memory", "-data"} {
		t.Run(mode, func(t *testing.T) {
			sp := spec{}
			if mode == "-data" {
				sp.store = &store.Options{}
			}
			base := stack(t, sp).URL
			const n0, batches, batch, radius = 300, 40, 40, 0.08
			rng := rand.New(rand.NewSource(7))
			all := randomPoints(rng, n0+batches*batch)
			queries := randomPoints(rng, 16)
			doJSON(t, http.MethodPut, base+"/datasets/a", api.Points{Points: all[:n0]}, http.StatusOK)

			var sent, acked atomic.Int64
			sent.Store(n0)
			acked.Store(n0)
			stop := make(chan struct{})
			errs := make(chan error, 8)
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[i%len(queries)]
						atLeast := int(acked.Load())
						raw, _ := json.Marshal(map[string]any{"point": q, "radius": radius})
						resp, err := quick.Post(base+"/datasets/a/range", "application/json", bytes.NewReader(raw))
						if err != nil {
							errs <- err
							return
						}
						var got api.RangeResponse
						err = json.NewDecoder(resp.Body).Decode(&got)
						resp.Body.Close()
						atMost := int(sent.Load())
						if err != nil {
							errs <- err
							return
						}
						sort.Ints(got.Indexes)
						want := jointest.Range(all[:atMost], q, radius)
						n := len(got.Indexes)
						if n > len(want) || !slices.Equal(got.Indexes, want[:n]) || (n < len(want) && want[n] < atLeast) {
							errs <- fmt.Errorf("range %v between %d and %d points: %v, brute %v", q, atLeast, atMost, got.Indexes, want)
							return
						}
					}
				}(r)
			}
			for b := 0; b < batches; b++ {
				lo := n0 + b*batch
				sent.Store(int64(lo + batch))
				resp, _ := doJSON(t, http.MethodPost, base+"/datasets/a/points",
					map[string]any{"points": all[lo : lo+batch]}, http.StatusOK)
				var info api.AppendResponse
				if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
					t.Fatal(err)
				}
				if info.Len != lo+batch {
					t.Fatalf("append %d acknowledged length %d, want %d", b, info.Len, lo+batch)
				}
				acked.Store(int64(lo + batch))
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			for _, q := range queries {
				resp, _ := doJSON(t, http.MethodPost, base+"/datasets/a/range",
					map[string]any{"point": q, "radius": radius}, http.StatusOK)
				var ans api.RangeResponse
				if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
					t.Fatal(err)
				}
				sort.Ints(ans.Indexes)
				if want := jointest.Range(all, q, radius); !slices.Equal(ans.Indexes, want) {
					t.Errorf("range %v after the appends: %v, brute %v", q, ans.Indexes, want)
				}
				for _, k := range []int{1, 7, len(all) + 5} {
					resp, _ := doJSON(t, http.MethodPost, base+"/datasets/a/knn",
						map[string]any{"point": q, "k": k}, http.StatusOK)
					var knn api.KNNResponse
					if err := json.NewDecoder(resp.Body).Decode(&knn); err != nil {
						t.Fatal(err)
					}
					if want := jointest.KNN[api.Neighbor](all, q, k); !slices.Equal(knn.Neighbors, want) {
						t.Errorf("knn %v k=%d after the appends differs from brute", q, k)
					}
				}
			}
		})
	}
}

// TestIndexRebuildRunsOffTheLock holds a background rebuild in the build
// function and shows that appends and queries on the same dataset still
// complete, and see every acknowledged point, while it is held.
func TestIndexRebuildRunsOffTheLock(t *testing.T) {
	var hold atomic.Bool
	held, release := make(chan struct{}, 1), make(chan struct{})
	var released sync.Once
	free := func() { released.Do(func() { close(release) }) }
	ts := stack(t, spec{tune: func(s *server) {
		s.buildIndex = func(ds *simjoin.Dataset) *simjoin.NeighborIndex {
			if hold.Load() {
				held <- struct{}{}
				<-release
			}
			return simjoin.NewNeighborIndex(ds)
		}
	}})
	// A failing run must not leave a handler parked in the build, or
	// Close would wait for it forever.
	t.Cleanup(free)

	origin := map[string]any{"point": []float64{0, 0}, "radius": 0.001}
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: [][]float64{{0, 0}, {5, 5}}}, http.StatusOK)
	doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range",
		origin, http.StatusOK) // the first query builds, unheld
	hold.Store(true)

	// A tail past max(1 024, n/8) makes the next query start a rebuild,
	// which blocks in the build function.
	far := make([][]float64, 1100)
	for i := range far {
		far[i] = []float64{1 + float64(i), 1}
	}
	doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points", map[string]any{"points": far}, http.StatusOK)
	doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range", origin, http.StatusOK)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("a 1 100-point tail started no rebuild")
	}

	// While the rebuild is held: an append, then queries that see it.
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
		map[string]any{"points": [][]float64{{0.0001, 0}}}, http.StatusOK)
	var info api.AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Len != 1103 {
		t.Fatalf("append while a rebuild is held: length %d, want 1103", info.Len)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range", origin, http.StatusOK)
	var got api.RangeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	sort.Ints(got.Indexes)
	if !slices.Equal(got.Indexes, []int{0, 1102}) {
		t.Errorf("range while a rebuild is held = %v, want [0 1102]", got.Indexes)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/datasets/a/knn",
		map[string]any{"point": []float64{0, 0}, "k": 2}, http.StatusOK)
	var knn api.KNNResponse
	if err := json.NewDecoder(resp.Body).Decode(&knn); err != nil {
		t.Fatal(err)
	}
	if len(knn.Neighbors) != 2 || knn.Neighbors[1].Index != 1102 {
		t.Errorf("knn while a rebuild is held = %v", knn.Neighbors)
	}
	if rec := getQueries(t, ts.URL, "?limit=1").Queries[0]; rec.Kind != "knn" || rec.Tail != 1101 {
		t.Errorf("journal record = %s with tail %d, want knn with tail 1101", rec.Kind, rec.Tail)
	}

	// Released, the rebuild swaps in a tree over the 1 102 points it saw;
	// the point appended meanwhile stays in the tail.
	hold.Store(false)
	free()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(getText(t, ts.URL+"/metrics"), "simjoind_index_rebuilds_total 2") {
		if time.Now().After(deadline) {
			t.Fatal("the released rebuild never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range", origin, http.StatusOK)
	rec := getQueries(t, ts.URL, "?limit=1").Queries[0]
	if rec.Tail != 1 {
		t.Errorf("tail after the rebuild = %d, want 1", rec.Tail)
	}
	for _, td := range getTraces(t, ts.URL) {
		if td.TraceID != rec.TraceID {
			continue
		}
		root, _ := td.Root()
		if !slices.Contains(root.Counters, trace.Counter{Key: "tail", Value: 1}) {
			t.Errorf("range span counters = %v, want tail=1", root.Counters)
		}
	}
}
