package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/jointest"
	"simjoin/internal/obsv/querylog"
)

// servedRun is one served join's answer as the contract tests compare it:
// the sorted pair set, the answer's total and the worker's journal record.
type servedRun struct {
	pairs [][2]int
	total int64
	rec   querylog.Record
}

// runServed posts one join to a worker — collect or stream by body's
// "stream" — and reads back its answer and the journal record it left.
func runServed(t *testing.T, base, path string, body map[string]any) servedRun {
	t.Helper()
	var run servedRun
	var sum map[string]any
	run.pairs, sum = joinPairs(t, base+path, body)
	run.total = int64(sum["total"].(float64))
	run.rec = getQueries(t, base, "?limit=1").Queries[0]
	return run
}

// TestServedJoinWorkersDefault holds a worker's served joins to the
// contract an omitted workers now carries: the join spreads over every
// core (GOMAXPROCS, journaled as the record's workers) and answers
// exactly what a one-goroutine run answers — pair set, total and work
// counters — for the self-join and the two-set join, collected and
// streamed, on each engine that spreads. 2 000 points are enough for the
// ε-kdB tree to cut more than one task per worker.
func TestServedJoinWorkersDefault(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: jointest.UniformPoints(2000, 4, 361)}, http.StatusOK)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/b",
		api.Points{Points: jointest.UniformPoints(1500, 4, 362)}, http.StatusOK)
	procs := runtime.GOMAXPROCS(0)
	for _, algo := range []string{"", "grid", "kdtree"} {
		for _, route := range []struct{ path, a, b string }{
			{"/datasets/a/selfjoin", "", ""},
			{"/join", "a", "b"},
		} {
			for _, stream := range []bool{false, true} {
				what := fmt.Sprintf("algorithm %q %s stream=%v", algo, route.path, stream)
				body := func() map[string]any {
					b := map[string]any{"eps": 0.1, "stream": stream}
					if algo != "" {
						b["algorithm"] = algo
					}
					if route.a != "" {
						b["a"], b["b"] = route.a, route.b
					}
					return b
				}
				one := body()
				one["workers"] = 1
				serial := runServed(t, ts.URL, route.path, one)
				dflt := runServed(t, ts.URL, route.path, body())
				if len(serial.pairs) == 0 {
					t.Fatalf("%s: degenerate fixture, no pairs", what)
				}
				if serial.rec.Workers != 1 || dflt.rec.Workers != procs {
					t.Errorf("%s: journaled workers %d (asked 1) and %d (omitted), want 1 and GOMAXPROCS %d",
						what, serial.rec.Workers, dflt.rec.Workers, procs)
				}
				if !slices.Equal(dflt.pairs, serial.pairs) || dflt.total != serial.total {
					t.Errorf("%s: omitted workers answered %d pairs (total %d), workers 1 answered %d (total %d)",
						what, len(dflt.pairs), dflt.total, len(serial.pairs), serial.total)
				}
				if dflt.rec.Candidates != serial.rec.Candidates || dflt.rec.DistComps != serial.rec.DistComps {
					t.Errorf("%s: candidates/dist_comps %d/%d, at workers 1 %d/%d", what,
						dflt.rec.Candidates, dflt.rec.DistComps, serial.rec.Candidates, serial.rec.DistComps)
				}
			}
		}
	}
}

// TestServedJoinHostileWorkers: a request naming a million workers runs
// on at most GOMAXPROCS goroutines — the k-d tree engine would otherwise
// start one per point, each with its own sink — and still answers the
// exact pair set.
func TestServedJoinHostileWorkers(t *testing.T) {
	ts := stack(t, spec{})
	pts := jointest.UniformPoints(2000, 4, 363)
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: pts}, http.StatusOK)
	want := jointest.SelfPairs(pts, 0.1)
	for _, stream := range []bool{false, true} {
		got := runServed(t, ts.URL, "/datasets/a/selfjoin",
			map[string]any{"eps": 0.1, "algorithm": "kdtree", "workers": 1000000, "stream": stream})
		if !slices.Equal(got.pairs, want) || got.total != int64(len(want)) {
			t.Errorf("stream=%v: %d pairs (total %d), want %d", stream, len(got.pairs), got.total, len(want))
		}
		if w := got.rec.Workers; w < 1 || w > runtime.GOMAXPROCS(0) {
			t.Errorf("stream=%v: journaled workers %d, want 1..GOMAXPROCS %d", stream, w, runtime.GOMAXPROCS(0))
		}
	}
}

// TestServedJoinCoordinatorForwardsWorkers: the coordinator resolves no
// parallelism of its own. An omitted workers reaches every shard omitted
// — each worker sizes the join by its own cores — and a named count
// reaches it as named; the coordinator's journal record carries none.
func TestServedJoinCoordinatorForwardsWorkers(t *testing.T) {
	var mu sync.Mutex
	var seen []map[string]any
	coord := stack(t, spec{workers: 2, margin: 0.3, wrap: func(worker http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/selfjoin") {
				raw, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				var body map[string]any
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Errorf("shard body %q: %v", raw, err)
				}
				mu.Lock()
				seen = append(seen, body)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(raw))
			}
			worker.ServeHTTP(w, r)
		})
	}})
	urls := coord.workers
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(800, 3, 364)}, http.StatusOK)

	for _, tc := range []struct {
		req  map[string]any
		want any // the shard body's "workers"; nil when absent
	}{
		{map[string]any{"eps": 0.2}, nil},
		{map[string]any{"eps": 0.2, "workers": 3}, float64(3)},
	} {
		mu.Lock()
		seen = nil
		mu.Unlock()
		resp, out := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/selfjoin", tc.req, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: %d %v", tc.req, resp.StatusCode, out)
		}
		mu.Lock()
		if len(seen) != len(urls) {
			t.Errorf("%v: %d shard requests, want %d", tc.req, len(seen), len(urls))
		}
		for _, body := range seen {
			if got, ok := body["workers"]; got != tc.want || ok != (tc.want != nil) {
				t.Errorf("%v: shard body workers = %v (present %v), want %v", tc.req, got, ok, tc.want)
			}
		}
		mu.Unlock()
		if rec := getQueries(t, coord.URL, "?limit=1").Queries[0]; rec.Workers != 0 {
			t.Errorf("%v: coordinator journaled workers %d, want 0", tc.req, rec.Workers)
		}
	}
}

// TestServedJoinConcurrent runs collect joins, stream joins and range
// queries from four goroutines against one worker, every served join on
// all its cores, each answer checked against the serial one.
func TestServedJoinConcurrent(t *testing.T) {
	ts := stack(t, spec{})
	doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
		api.Points{Points: jointest.UniformPoints(1500, 4, 365)}, http.StatusOK)
	want := runServed(t, ts.URL, "/datasets/a/selfjoin", map[string]any{"eps": 0.1, "workers": 1})
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/range", concurrentRange, http.StatusOK)
	var rr api.RangeResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := concurrentOp(ts.URL, (g+i)%3, want.pairs, len(rr.Indexes)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// concurrentRange is TestServedJoinConcurrent's range query.
var concurrentRange = map[string]any{"point": []float64{0.5, 0.5, 0.5, 0.5}, "radius": 0.2}

// concurrentOp runs one of TestServedJoinConcurrent's three operations
// and checks its answer, reporting instead of failing: it runs off the
// test goroutine.
func concurrentOp(base string, op int, wantPairs [][2]int, wantRange int) error {
	switch op {
	case 0, 1:
		body, err := json.Marshal(map[string]any{"eps": 0.1, "stream": op == 1})
		if err != nil {
			return err
		}
		resp, err := quick.Post(base+"/datasets/a/selfjoin", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("selfjoin stream=%v: status %d", op == 1, resp.StatusCode)
		}
		var got [][2]int
		if op == 1 {
			err = api.ReadStream(resp.Body, func(p [2]int) error {
				got = append(got, p)
				return nil
			}, func(json.RawMessage) error { return nil })
		} else {
			var out api.JoinResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			got = out.Pairs
		}
		if err != nil {
			return err
		}
		sort.Slice(got, func(a, b int) bool {
			return got[a][0] < got[b][0] || (got[a][0] == got[b][0] && got[a][1] < got[b][1])
		})
		if !slices.Equal(got, wantPairs) {
			return fmt.Errorf("selfjoin stream=%v: %d pairs, serial answer %d", op == 1, len(got), len(wantPairs))
		}
	default:
		body, err := json.Marshal(concurrentRange)
		if err != nil {
			return err
		}
		resp, err := quick.Post(base+"/datasets/a/range", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var rr api.RangeResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return err
		}
		if len(rr.Indexes) != wantRange {
			return fmt.Errorf("range: %d hits, want %d", len(rr.Indexes), wantRange)
		}
	}
	return nil
}
