package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"simjoin/internal/jointest"
	"simjoin/internal/live"
)

// handleWatch is the fake worker's standing-query stream: the same
// NDJSON contract as a real worker's POST /datasets/{name}/watch, with
// deltas computed by brute force against the stored points.
func (f *fakeWorker) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var q struct {
		Eps   float64 `json:"eps"`
		After *int    `json:"after"`
	}
	_ = json.NewDecoder(r.Body).Decode(&q)
	f.mu.Lock()
	pts, ok := f.sets[name]
	f.mu.Unlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no dataset"})
		return
	}
	cursor := len(pts)
	if q.After != nil {
		if *q.After < 0 || *q.After > len(pts) {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "bad cursor"})
			return
		}
		cursor = *q.After
	}
	f.mu.Lock()
	f.watchConns++
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.watchConns--
		f.mu.Unlock()
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"event": "hello", "seq": cursor})
	if fl != nil {
		fl.Flush()
	}
	catchUp := true
	for {
		f.mu.Lock()
		pts, ok := f.sets[name]
		ch := f.change
		end := f.endAfterBatch
		f.mu.Unlock()
		if !ok {
			enc.Encode(map[string]any{"event": "end", "reason": live.ReasonDeleted})
			if fl != nil {
				fl.Flush()
			}
			return
		}
		if len(pts) > cursor {
			for _, p := range jointest.Delta(jointest.SelfPairs(pts, q.Eps), jointest.SelfPairs(pts[:cursor], q.Eps)) {
				enc.Encode(p)
			}
			ev := map[string]any{"event": "batch", "seq": len(pts), "added": len(pts) - cursor}
			if catchUp {
				ev["catch_up"] = true
			}
			enc.Encode(ev)
			cursor = len(pts)
			if fl != nil {
				fl.Flush()
			}
			if end {
				enc.Encode(map[string]any{"event": "end", "reason": live.ReasonShutdown})
				if fl != nil {
					fl.Flush()
				}
				return
			}
		}
		catchUp = false
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// pairTally collects watch deliveries: distinct pairs plus how often
// each arrived.
type pairTally struct {
	mu  sync.Mutex
	got map[[2]int]int
}

func newPairTally() *pairTally { return &pairTally{got: make(map[[2]int]int)} }

func (pt *pairTally) add(ev WatchEvent) bool {
	pt.mu.Lock()
	for _, p := range ev.Pairs {
		pt.got[p]++
	}
	pt.mu.Unlock()
	return true
}

func (pt *pairTally) distinct() int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return len(pt.got)
}

// check verifies the tally is exactly want, delivered at most maxSeen
// times per pair.
func (pt *pairTally) check(t *testing.T, want [][2]int, maxSeen int) {
	t.Helper()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, p := range want {
		if pt.got[p] == 0 {
			t.Fatalf("pair %v never delivered", p)
		}
	}
	for p, n := range pt.got {
		if n > maxSeen {
			t.Fatalf("pair %v delivered %d times, want ≤ %d", p, n, maxSeen)
		}
	}
	if len(pt.got) != len(want) {
		t.Fatalf("delivered %d distinct pairs, want %d", len(pt.got), len(want))
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWatchFromStartMatchesOracle(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 0.2)
	ctx := context.Background()
	pts := jointest.UniformPoints(100, 3, 21)
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	// One append lands before the watch: full replay must cover it.
	pts = append(pts, jointest.UniformPoints(50, 3, 22)...)
	if _, err := c.Append(ctx, "d", pts[100:]); err != nil {
		t.Fatalf("Append: %v", err)
	}

	const eps = 0.15
	tally := newPairTally()
	done := make(chan struct{})
	var reason string
	var werr error
	go func() {
		defer close(done)
		reason, werr = c.Watch(ctx, "d", JoinQuery{Eps: eps}, true, tally.add)
	}()
	want := jointest.SelfPairs(pts, eps)
	waitFor(t, "full replay", func() bool { return tally.distinct() >= len(want) })

	// A live append while the watch runs delivers exactly the new pairs.
	pts = append(pts, jointest.UniformPoints(50, 3, 23)...)
	if _, err := c.Append(ctx, "d", pts[150:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want = jointest.SelfPairs(pts, eps)
	waitFor(t, "live delta", func() bool { return tally.distinct() >= len(want) })
	tally.check(t, want, 1)

	// Deleting the dataset is the watch's terminal event.
	if err := c.Delete(ctx, "d"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not end after delete")
	}
	if werr != nil || reason != live.ReasonDeleted {
		t.Fatalf("watch ended (%q, %v), want (%q, nil)", reason, werr, live.ReasonDeleted)
	}
}

func TestWatchLiveOnlyDeliversOnlyNewPairs(t *testing.T) {
	c, _, fakes := newTestCluster(t, 3, 0.2)
	ctx := context.Background()
	pts := jointest.UniformPoints(120, 3, 31)
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	const eps = 0.15
	tally := newPairTally()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.Watch(wctx, "d", JoinQuery{Eps: eps}, false, tally.add)
	}()
	// Every shard stream must be attached before the append, or its
	// catch-up legitimately replays from an older cursor.
	waitFor(t, "shard streams", func() bool {
		n := 0
		for _, f := range fakes {
			f.mu.Lock()
			n += f.watchConns
			f.mu.Unlock()
		}
		return n == 3
	})

	old := jointest.SelfPairs(pts, eps)
	pts = append(pts, jointest.UniformPoints(60, 3, 32)...)
	if _, err := c.Append(ctx, "d", pts[120:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := jointest.Delta(jointest.SelfPairs(pts, eps), old)
	waitFor(t, "delta pairs", func() bool { return tally.distinct() >= len(want) })
	tally.check(t, want, 1)
	cancel()
	<-done
}

func TestWatchReconnectResumesFromCursor(t *testing.T) {
	c, _, fakes := newTestCluster(t, 3, 0.2)
	ctx := context.Background()
	for _, f := range fakes {
		f.mu.Lock()
		f.endAfterBatch = true
		f.mu.Unlock()
	}
	pts := jointest.UniformPoints(80, 3, 41)
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	const eps = 0.15
	tally := newPairTally()
	done := make(chan struct{})
	var reason string
	var werr error
	go func() {
		defer close(done)
		reason, werr = c.Watch(ctx, "d", JoinQuery{Eps: eps}, true, tally.add)
	}()
	// Each batch kills its stream, so every delivery crosses a
	// reconnect; cursor resume must still produce the exact pair set.
	for round := 0; round < 3; round++ {
		grown := append(pts, jointest.UniformPoints(30, 3, int64(42+round))...)
		if _, err := c.Append(ctx, "d", grown[len(pts):]); err != nil {
			t.Fatalf("Append: %v", err)
		}
		pts = grown
	}
	want := jointest.SelfPairs(pts, eps)
	waitFor(t, "pairs across reconnects", func() bool { return tally.distinct() >= len(want) })
	tally.check(t, want, 1)
	if err := c.Delete(ctx, "d"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not end after delete")
	}
	if werr != nil || reason != live.ReasonDeleted {
		t.Fatalf("watch ended (%q, %v), want (%q, nil)", reason, werr, live.ReasonDeleted)
	}
}

func TestWatchSlowConsumerStops(t *testing.T) {
	c, _, _ := newTestCluster(t, 2, 0.2)
	ctx := context.Background()
	// Clustered points so the replay has at least one pair to deliver.
	pts := [][]float64{{0.5, 0.5}, {0.5, 0.51}, {0.9, 0.1}, {0.1, 0.9}}
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	reason, err := c.Watch(ctx, "d", JoinQuery{Eps: 0.1}, true, func(WatchEvent) bool { return false })
	if err != nil || reason != live.ReasonSlowConsumer {
		t.Fatalf("watch ended (%q, %v), want (%q, nil)", reason, err, live.ReasonSlowConsumer)
	}
}

func TestWatchValidation(t *testing.T) {
	c, _, _ := newTestCluster(t, 2, 0.1)
	ctx := context.Background()
	emit := func(WatchEvent) bool { return true }
	var nfe NotFoundError
	if _, err := c.Watch(ctx, "nope", JoinQuery{Eps: 0.05}, false, emit); !errors.As(err, &nfe) {
		t.Errorf("missing dataset: err = %v, want NotFoundError", err)
	}
	if _, err := c.Upload(ctx, "d", jointest.UniformPoints(20, 2, 51), 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	var qe QueryError
	if _, err := c.Watch(ctx, "d", JoinQuery{Eps: 0}, false, emit); !errors.As(err, &qe) {
		t.Errorf("eps 0: err = %v, want QueryError", err)
	}
	if _, err := c.Watch(ctx, "d", JoinQuery{Eps: 0.5}, false, emit); !errors.As(err, &qe) {
		t.Errorf("eps > margin: err = %v, want QueryError", err)
	}
	if _, err := c.Watch(ctx, "d", JoinQuery{Eps: 0.05, Metric: "cosine"}, false, emit); !errors.As(err, &qe) {
		t.Errorf("bad metric: err = %v, want QueryError", err)
	}
}

func TestAppendRoutesAndMatchesSingleNode(t *testing.T) {
	c, _, fakes := newTestCluster(t, 3, 0.1)
	ctx := context.Background()
	pts := jointest.UniformPoints(200, 3, 61)
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	old, _ := c.Map("d")
	oldLens := make([]int, len(old.Shards))
	for s, sh := range old.Shards {
		oldLens[s] = len(sh.Global)
	}

	pts = append(pts, jointest.UniformPoints(100, 3, 62)...)
	res, err := c.Append(ctx, "d", pts[200:])
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if res.Partial || res.Len != 300 {
		t.Fatalf("append result = %+v", res)
	}
	// Copy-on-write: the superseded map is untouched.
	if old.Total != 200 {
		t.Fatalf("old map Total mutated to %d", old.Total)
	}
	for s, sh := range old.Shards {
		if len(sh.Global) != oldLens[s] {
			t.Fatalf("old map shard %d grew from %d to %d", s, oldLens[s], len(sh.Global))
		}
	}

	sm, _ := c.Map("d")
	if sm.Total != 300 {
		t.Fatalf("new map Total = %d", sm.Total)
	}
	// Every worker's stored points must line up with the new map.
	for s, sh := range sm.Shards {
		fakes[s].mu.Lock()
		stored := fakes[s].sets["d"]
		fakes[s].mu.Unlock()
		if len(stored) != len(sh.Global) {
			t.Fatalf("shard %d stores %d points, map says %d", s, len(stored), len(sh.Global))
		}
		for l, g := range sh.Global {
			if !reflect.DeepEqual(stored[l], pts[g]) {
				t.Fatalf("shard %d local %d: wrong point for global %d", s, l, g)
			}
		}
	}
	// Appended points keep the core-once + margin-replica invariants.
	core := make(map[int]int)
	for s, sh := range sm.Shards {
		for _, g := range sh.Global {
			if g >= 200 && sm.ShardOf(pts[g][sm.Dim]) == s {
				core[g]++
			}
		}
	}
	for g := 200; g < 300; g++ {
		if core[g] != 1 {
			t.Fatalf("appended global %d is core on %d shards, want 1", g, core[g])
		}
	}
	// The distributed join over the grown dataset stays exact.
	got, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.08})
	if err != nil {
		t.Fatalf("SelfJoin: %v", err)
	}
	if want := jointest.SelfPairs(pts, 0.08); !reflect.DeepEqual(got.Pairs, want) {
		t.Fatalf("post-append join: got %d pairs, want %d", len(got.Pairs), len(want))
	}
}

func TestAppendCreatesDatasetOnEmptyShard(t *testing.T) {
	c, _, fakes := newTestCluster(t, 2, 0.1)
	// Hand-built map: shard 1 exists but holds nothing yet.
	sm := &ShardMap{
		Dims: 1, Dim: 0, Cuts: []float64{10}, Margin: 0.1, Total: 1,
		Shards: []Shard{
			{URL: c.workers[0], Global: []int{0}},
			{URL: c.workers[1]},
		},
	}
	c.sets["d"] = sm
	fakes[0].sets["d"] = [][]float64{{0}}

	res, err := c.Append(context.Background(), "d", [][]float64{{20}})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if res.Partial || res.Len != 2 {
		t.Fatalf("append result = %+v", res)
	}
	fakes[1].mu.Lock()
	created := fakes[1].sets["d"]
	fakes[1].mu.Unlock()
	if !reflect.DeepEqual(created, [][]float64{{20}}) {
		t.Fatalf("empty shard was not created via PUT: %v", created)
	}
	fakes[0].mu.Lock()
	untouched := len(fakes[0].sets["d"])
	fakes[0].mu.Unlock()
	if untouched != 1 {
		t.Fatalf("shard 0 gained a point outside its strip: %d", untouched)
	}
}

func TestAppendValidation(t *testing.T) {
	c, _, _ := newTestCluster(t, 2, 0.1)
	ctx := context.Background()
	var nfe NotFoundError
	if _, err := c.Append(ctx, "nope", [][]float64{{1, 2}}); !errors.As(err, &nfe) {
		t.Errorf("missing dataset: err = %v, want NotFoundError", err)
	}
	if _, err := c.Upload(ctx, "d", jointest.UniformPoints(20, 2, 71), 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	var qe QueryError
	if _, err := c.Append(ctx, "d", nil); !errors.As(err, &qe) {
		t.Errorf("empty append: err = %v, want QueryError", err)
	}
	if _, err := c.Append(ctx, "d", [][]float64{{1, 2, 3}}); !errors.As(err, &qe) {
		t.Errorf("dims mismatch: err = %v, want QueryError", err)
	}
}
