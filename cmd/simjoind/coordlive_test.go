package main

import (
	"net/http"
	"slices"
	"testing"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/cluster"
	"simjoin/internal/jointest"
	"simjoin/internal/store"
)

// collectDistinct consumes stream events until got holds at least n
// distinct pairs. Premature end events and stream errors fail the test;
// so does a pair set still short of n after one collectWait, with the
// number of pairs missing.
func (ws *watchStream) collectDistinct(got map[[2]int]int, n int) {
	ws.t.Helper()
	deadline := time.Now().Add(collectWait)
	for len(got) < n {
		ev, ok := ws.nextBefore(deadline)
		if !ok {
			ws.t.Fatalf("watch: %d of %d distinct pairs after %v, %d missing", len(got), n, collectWait, n-len(got))
		}
		switch {
		case ev.err != nil:
			ws.t.Fatalf("watch stream broke: %v", ev.err)
		case ev.pair != nil:
			got[*ev.pair]++
		case ev.obj["event"] == "end":
			ws.t.Fatalf("watch ended early: %v", ev.obj)
		}
	}
}

// waitWorkerSubs polls worker metadata until every worker holding name
// reports a live subscription — i.e. the coordinator's per-shard watch
// streams are established and no subsequent append can be missed.
func waitWorkerSubs(t *testing.T, workerURLs []string, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		for _, wu := range workerURLs {
			resp, body := doJSON(t, http.MethodGet, wu+"/datasets/"+name, nil, 0)
			if resp.StatusCode == http.StatusNotFound {
				continue
			}
			lv, _ := body["live"].(map[string]any)
			if subs, _ := lv["subscriptions"].(float64); subs < 1 {
				ready = false
			}
		}
		if ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator watch streams never reached the workers")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordWatchFromStartMatchesOracle is the coordinator-mode
// acceptance path: a full-replay standing query over real workers must
// deliver, across catch-up and live appends, exactly the brute-force
// pair set of the final dataset in global upload order.
func TestCoordWatchFromStartMatchesOracle(t *testing.T) {
	const eps = 0.15
	coord := stack(t, spec{workers: 3, margin: 0.35})
	pts := livePoints(120, 4, 50)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)

	ws := openWatch(t, coord.URL, "d", map[string]any{"eps": eps, "after": 0}, 0)
	defer ws.close()
	hello := ws.hello()
	if seq, _ := hello["seq"].(float64); int(seq) != 120 {
		t.Fatalf("hello seq = %v, want 120", hello["seq"])
	}
	got := make(map[[2]int]int)
	ws.collectDistinct(got, len(jointest.SelfPairs(pts, eps)))

	batch := livePoints(60, 4, 51)
	pts = append(pts, batch...)
	doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", api.Points{Points: batch}, http.StatusOK)
	want := jointest.SelfPairs(pts, eps)
	if len(want) == 0 {
		t.Fatal("oracle found no pairs — test parameters are vacuous")
	}
	ws.collectDistinct(got, len(want))
	checkPairSet(t, got, want, false)

	// Coordinator metadata: global shape plus the standing-query tally.
	resp, meta := doJSON(t, http.MethodGet, coord.URL+"/datasets/d", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dataset: %d %v", resp.StatusCode, meta)
	}
	if n, _ := meta["len"].(float64); int(n) != len(pts) {
		t.Fatalf("metadata len = %v, want %d", meta["len"], len(pts))
	}
	if stored, _ := meta["stored"].(float64); int(stored) < len(pts) {
		t.Fatalf("metadata stored = %v, want >= %d (margin replication)", meta["stored"], len(pts))
	}
	if wn, _ := meta["watches"].(float64); int(wn) != 1 {
		t.Fatalf("metadata watches = %v, want 1", meta["watches"])
	}

	// DELETE through the coordinator ends the stream with a terminal
	// event, same contract as a worker.
	doJSON(t, http.MethodDelete, coord.URL+"/datasets/d", nil, 0)
	if reason := ws.waitEnd(); reason != "dataset deleted" {
		t.Fatalf("end reason = %q, want %q", reason, "dataset deleted")
	}
}

// TestCoordWatchLiveOnlyNewPairs subscribes without a cursor: only
// pairs created by appends after the per-shard streams are up may
// arrive, and all of them must.
func TestCoordWatchLiveOnlyNewPairs(t *testing.T) {
	const eps = 0.15
	coord := stack(t, spec{workers: 2, margin: 0.35})
	pts := livePoints(100, 4, 60)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)
	base := jointest.SelfPairs(pts, eps)

	ws := openWatch(t, coord.URL, "d", map[string]any{"eps": eps}, 0)
	defer ws.close()
	ws.hello()
	waitWorkerSubs(t, coord.workers, "d")

	batch := livePoints(50, 4, 61)
	pts = append(pts, batch...)
	doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", api.Points{Points: batch}, http.StatusOK)

	want := jointest.Delta(jointest.SelfPairs(pts, eps), base)
	if len(want) == 0 {
		t.Fatal("append created no new pairs — test parameters are vacuous")
	}
	got := make(map[[2]int]int)
	ws.collectDistinct(got, len(want))
	checkPairSet(t, got, want, false)
}

// TestCoordWatchAcrossWorkerRestart is the durability acceptance test in
// coordinator mode: hard-kill a worker under a standing query, bring it
// back on the same address from its WAL, and the watcher's union must
// still converge to the brute-force oracle over the final dataset.
func TestCoordWatchAcrossWorkerRestart(t *testing.T) {
	const eps = 0.15
	coord := stack(t, spec{workers: 2, margin: 0.35, store: &store.Options{Sync: store.SyncAlways}})
	pts := livePoints(80, 4, 70)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)

	ws := openWatch(t, coord.URL, "d", map[string]any{"eps": eps, "after": 0}, 0)
	defer ws.close()
	ws.hello()
	got := make(map[[2]int]int)
	ws.collectDistinct(got, len(jointest.SelfPairs(pts, eps)))

	batch := livePoints(40, 4, 71)
	pts = append(pts, batch...)
	doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", api.Points{Points: batch}, http.StatusOK)
	ws.collectDistinct(got, len(jointest.SelfPairs(pts, eps)))

	// Crash worker 0 mid-watch; the coordinator's shard stream starts
	// its reconnect loop. Recovery replays the WAL, so the resumed
	// stream picks up from the coordinator's acknowledged cursor.
	coord.Kill(0)
	coord.Restart(0)

	tail := livePoints(30, 4, 72)
	pts = append(pts, tail...)
	doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", api.Points{Points: tail}, http.StatusOK)

	want := jointest.SelfPairs(pts, eps)
	ws.collectDistinct(got, len(want))
	// Reconnect replays any batch that was in flight at the kill, so
	// delivery is at-least-once here.
	checkPairSet(t, got, want, true)

	resp, meta := doJSON(t, http.MethodGet, coord.URL+"/datasets/d", nil, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dataset after restart: %d %v", resp.StatusCode, meta)
	}
	if n, _ := meta["len"].(float64); int(n) != len(pts) {
		t.Fatalf("metadata len = %v, want %d", meta["len"], len(pts))
	}
}

// TestCoordWatchShutdown drains standing queries with a terminal event
// when the coordinator shuts down, instead of hanging up on them.
func TestCoordWatchShutdown(t *testing.T) {
	coord := stack(t, spec{workers: 2, margin: 0.35, store: &store.Options{Sync: store.SyncAlways}})
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d",
		api.Points{Points: livePoints(40, 3, 80)}, http.StatusOK)

	ws := openWatch(t, coord.URL, "d", map[string]any{"eps": 0.1}, 0)
	defer ws.close()
	ws.hello()
	coord.coord.shutdownWatches()
	if reason := ws.waitEnd(); reason != "server shutting down" {
		t.Fatalf("end reason = %q, want %q", reason, "server shutting down")
	}
}

// TestCoordWatchValidation covers the coordinator watch endpoint's
// rejection paths, including the coordinator-specific cursor and
// two-set restrictions.
func TestCoordWatchValidation(t *testing.T) {
	coord := stack(t, spec{workers: 2, margin: 0.2})
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d",
		api.Points{Points: jointest.UniformPoints(40, 2, 90)}, http.StatusOK)

	openWatch(t, coord.URL, "missing", map[string]any{"eps": 0.1}, http.StatusNotFound)
	openWatch(t, coord.URL, "d", map[string]any{"eps": 0.0}, http.StatusBadRequest)
	openWatch(t, coord.URL, "d", map[string]any{"eps": 0.9}, http.StatusBadRequest) // beyond margin
	openWatch(t, coord.URL, "d", map[string]any{"eps": 0.1, "metric": "cosine"}, http.StatusBadRequest)
	openWatch(t, coord.URL, "d", map[string]any{"eps": 0.1, "after": 5}, http.StatusBadRequest)
	openWatch(t, coord.URL, "d", map[string]any{"eps": 0.1, "other": "d"}, http.StatusNotImplemented)
}

// TestCoordAppendThenSelfJoinMatchesOracle checks the append path end to
// end through real workers: after three appends, the last with a pair
// astride every shard cut, a distributed self-join over the grown dataset
// equals brute force.
func TestCoordAppendThenSelfJoinMatchesOracle(t *testing.T) {
	const eps, margin = 0.2, 0.35
	coord := stack(t, spec{workers: 3, margin: margin})
	pts := livePoints(100, 4, 95)
	doJSON(t, http.MethodPut, coord.URL+"/datasets/d", api.Points{Points: pts}, http.StatusOK)
	// The coordinator cut the upload as Partition does; appends route
	// through those cuts. The last batch puts a pair astride every cut, so
	// the pair set is exact only if each appended point above a cut is
	// also stored on the shard below it.
	sm, _ := cluster.Partition(pts, coord.workers, margin)
	var straddle [][]float64
	for _, c := range sm.Cuts {
		for _, off := range []float64{-eps / 4, eps / 4} {
			p := slices.Clone(pts[0])
			p[sm.Dim] = c + off
			straddle = append(straddle, p)
		}
	}
	for _, batch := range [][][]float64{livePoints(50, 4, 150), livePoints(30, 4, 130), straddle} {
		pts = append(pts, batch...)
		doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", api.Points{Points: batch}, http.StatusOK)
	}

	got, _ := joinPairs(t, coord.URL+"/datasets/d/selfjoin", map[string]any{"eps": eps})
	want := jointest.SelfPairs(pts, eps)
	astride := 0
	for _, p := range want {
		a, b := pts[p[0]][sm.Dim], pts[p[1]][sm.Dim]
		for _, c := range sm.Cuts {
			if p[1] >= 180 && min(a, b) < c && c <= max(a, b) {
				astride++
			}
		}
	}
	if astride < len(sm.Cuts) {
		t.Fatalf("oracle has %d appended pairs astride the %d cuts — test parameters are vacuous", astride, len(sm.Cuts))
	}
	if len(got) != len(want) {
		t.Fatalf("selfjoin after appends = %d pairs, oracle = %d", len(got), len(want))
	}
	for _, p := range got {
		if !slices.Contains(want, p) {
			t.Fatalf("selfjoin returned pair %v not in the oracle set", p)
		}
	}
}
