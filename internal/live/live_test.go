package live

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

// randPoints draws n clustered points in [0,1]^dims — clustering keeps
// the pair sets non-trivial at small ε.
func randPoints(rng *rand.Rand, n, dims int) [][]float64 {
	centers := make([][]float64, 8)
	for c := range centers {
		centers[c] = make([]float64, dims)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make([]float64, dims)
		for d := range p {
			p[d] = c[d] + (rng.Float64()-0.5)*0.2
		}
		pts[i] = p
	}
	return pts
}

func fromPoints(pts [][]float64) *dataset.Dataset {
	ds := dataset.New(len(pts[0]), len(pts))
	for _, p := range pts {
		ds.Append(p)
	}
	return ds
}

// oracleSelf brute-forces the self-join pair set over pts.
func oracleSelf(pts [][]float64, m vec.Metric, eps float64) [][2]int {
	t := vec.Threshold(m, eps)
	var out [][2]int
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if vec.Within(m, pts[i], pts[j], t) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// oracleTwo brute-forces the two-set pair set.
func oracleTwo(a, b [][]float64, m vec.Metric, eps float64) [][2]int {
	t := vec.Threshold(m, eps)
	var out [][2]int
	for i := range a {
		for j := range b {
			if vec.Within(m, a[i], b[j], t) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func sortPairs(prs [][2]int) {
	sort.Slice(prs, func(a, b int) bool {
		if prs[a][0] != prs[b][0] {
			return prs[a][0] < prs[b][0]
		}
		return prs[a][1] < prs[b][1]
	})
}

func pairsEqual(t *testing.T, got, want [][2]int) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// drain collects every event currently buffered on sub.
func drain(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func collectPairs(evs []Event) [][2]int {
	var out [][2]int
	for _, ev := range evs {
		out = append(out, ev.Pairs...)
	}
	return out
}

// TestSelfJoinDeltaEqualsOracle is the core contract: the union of
// delta pairs a subscriber receives across appended batches equals the
// brute-force pair set over the final dataset.
func TestSelfJoinDeltaEqualsOracle(t *testing.T) {
	for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(m) + 7))
			const eps = 0.15
			all := randPoints(rng, 120, 4)
			seed := all[:30]

			// The snapshots grow one shared buffer, as the serving
			// layer's do; the index reads them without copying.
			cur := fromPoints(seed)
			eng := New(Hooks{})
			eng.Track("pts", cur, eps)
			sub, err := eng.Subscribe(Query{Dataset: "pts", Eps: eps, Metric: m}, Options{Buffer: 64})
			if err != nil {
				t.Fatal(err)
			}
			got := [][2]int{}
			next := 30
			for next < len(all) {
				k := 1 + rng.Intn(20)
				if next+k > len(all) {
					k = len(all) - next
				}
				cur = cur.Grow(fromPoints(all[next : next+k]).Flat())
				next += k
				eng.Append(context.Background(), "pts", cur, k)
			}
			evs := drain(sub)
			got = append(got, collectPairs(evs)...)
			// Deltas exclude seed-internal pairs: both endpoints < 30.
			var want [][2]int
			for _, p := range oracleSelf(all, m, eps) {
				if p[1] >= 30 {
					want = append(want, p)
				}
			}
			pairsEqual(t, got, want)
			// Sequence tokens must walk the dataset lengths.
			if last := evs[len(evs)-1]; last.Seq != len(all) {
				t.Fatalf("final seq %d, want %d", last.Seq, len(all))
			}
		})
	}
}

// TestCatchUpReplayEqualsOracle: subscribing with an After cursor must
// replay exactly the pairs whose later endpoint is at or past the
// cursor, and live delivery continues seamlessly after it.
func TestCatchUpReplayEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const eps = 0.12
	all := randPoints(rng, 100, 3)

	eng := New(Hooks{})
	eng.Track("pts", fromPoints(all[:70]), eps)

	cursor := 40
	sub, err := eng.Subscribe(Query{Dataset: "pts", Eps: eps, Metric: vec.L2}, Options{Buffer: 64, After: &cursor})
	if err != nil {
		t.Fatal(err)
	}
	eng.Append(context.Background(), "pts", fromPoints(all), 30)

	evs := drain(sub)
	if len(evs) < 2 || !evs[0].CatchUp {
		t.Fatalf("want a catch-up event then a live batch, got %+v", evs)
	}
	if evs[0].Seq != 70 {
		t.Fatalf("catch-up seq %d, want 70", evs[0].Seq)
	}
	var want [][2]int
	for _, p := range oracleSelf(all, vec.L2, eps) {
		if p[1] >= cursor {
			want = append(want, p)
		}
	}
	pairsEqual(t, collectPairs(evs), want)
}

// TestTwoSetDeltaEqualsOracle interleaves appends to both sides of a
// two-set standing query.
func TestTwoSetDeltaEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const eps = 0.15
	a := randPoints(rng, 80, 3)
	b := randPoints(rng, 90, 3)

	eng := New(Hooks{})
	eng.Track("a", fromPoints(a[:20]), eps)
	eng.Track("b", fromPoints(b[:25]), eps)
	sub, err := eng.Subscribe(Query{Dataset: "a", Other: "b", Eps: eps, Metric: vec.L1}, Options{Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	na, nb := 20, 25
	for na < len(a) || nb < len(b) {
		if na < len(a) && (nb >= len(b) || rng.Intn(2) == 0) {
			k := 1 + rng.Intn(10)
			if na+k > len(a) {
				k = len(a) - na
			}
			eng.Append(context.Background(), "a", fromPoints(a[:na+k]), k)
			na += k
		} else {
			k := 1 + rng.Intn(10)
			if nb+k > len(b) {
				k = len(b) - nb
			}
			eng.Append(context.Background(), "b", fromPoints(b[:nb+k]), k)
			nb += k
		}
	}
	evs := drain(sub)
	var want [][2]int
	for _, p := range oracleTwo(a, b, vec.L1, eps) {
		if p[0] >= 20 || p[1] >= 25 {
			want = append(want, p)
		}
	}
	pairsEqual(t, collectPairs(evs), want)
	last := evs[len(evs)-1]
	if last.Seq != len(a) || last.SeqOther != len(b) {
		t.Fatalf("final cursors (%d,%d), want (%d,%d)", last.Seq, last.SeqOther, len(a), len(b))
	}
}

// TestTwoSetCatchUp replays both cursors of a two-set query.
func TestTwoSetCatchUp(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const eps = 0.2
	a := randPoints(rng, 50, 3)
	b := randPoints(rng, 60, 3)
	eng := New(Hooks{})
	eng.Track("a", fromPoints(a), eps)
	eng.Track("b", fromPoints(b), eps)
	ca, cb := 30, 35
	sub, err := eng.Subscribe(Query{Dataset: "a", Other: "b", Eps: eps, Metric: vec.L2},
		Options{Buffer: 8, After: &ca, AfterOther: &cb})
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(sub)
	var want [][2]int
	for _, p := range oracleTwo(a, b, vec.L2, eps) {
		if p[0] >= ca || p[1] >= cb {
			want = append(want, p)
		}
	}
	pairsEqual(t, collectPairs(evs), want)
}

// TestEpsRaiseRebuilds: a later subscription with a larger ε forces an
// index rebuild and both standing queries stay exact at their own ε.
func TestEpsRaiseRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	all := randPoints(rng, 80, 3)
	eng := New(Hooks{})
	eng.Track("pts", fromPoints(all[:40]), 0.05)
	small, err := eng.Subscribe(Query{Dataset: "pts", Eps: 0.05, Metric: vec.L2}, Options{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	big, err := eng.Subscribe(Query{Dataset: "pts", Eps: 0.25, Metric: vec.L2}, Options{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng.Append(context.Background(), "pts", fromPoints(all), len(all)-40)
	for _, tc := range []struct {
		sub *Subscription
		eps float64
	}{{small, 0.05}, {big, 0.25}} {
		var want [][2]int
		for _, p := range oracleSelf(all, vec.L2, tc.eps) {
			if p[1] >= 40 {
				want = append(want, p)
			}
		}
		pairsEqual(t, collectPairs(drain(tc.sub)), want)
	}
}

// TestSlowConsumerEviction: a subscriber that stops reading is evicted
// once its mailbox fills, and its channel closes with the eviction
// reason rather than blocking the append path.
func TestSlowConsumerEviction(t *testing.T) {
	evicted := 0
	eng := New(Hooks{Evicted: func() { evicted++ }})
	pts := [][]float64{{0, 0}}
	eng.Track("pts", fromPoints(pts), 0.1)
	sub, err := eng.Subscribe(Query{Dataset: "pts", Eps: 0.1, Metric: vec.L2}, Options{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pts = append(pts, []float64{float64(i) + 10, 0})
		eng.Append(context.Background(), "pts", fromPoints(pts), 1)
	}
	// Two events fit, the third overflows: drain and expect closure.
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d buffered events, want 2", n)
	}
	if sub.Reason() != ReasonSlowConsumer {
		t.Fatalf("reason %q, want %q", sub.Reason(), ReasonSlowConsumer)
	}
	if evicted != 1 {
		t.Fatalf("evicted hook ran %d times, want 1", evicted)
	}
	if eng.Subscriptions() != 0 {
		t.Fatalf("evicted subscription still registered")
	}
}

// TestDropTerminatesSubscribers covers DELETE/replace semantics: every
// subscription touching the dataset ends with the drop reason.
func TestDropTerminatesSubscribers(t *testing.T) {
	eng := New(Hooks{})
	eng.Track("a", fromPoints([][]float64{{0, 0}}), 0.1)
	eng.Track("b", fromPoints([][]float64{{1, 1}}), 0.1)
	self, _ := eng.Subscribe(Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{})
	two, _ := eng.Subscribe(Query{Dataset: "b", Other: "a", Eps: 0.1, Metric: vec.L2}, Options{})
	eng.Drop("a", ReasonDeleted)
	for _, sub := range []*Subscription{self, two} {
		if _, ok := <-sub.Events(); ok {
			t.Fatal("expected closed channel after drop")
		}
		if sub.Reason() != ReasonDeleted {
			t.Fatalf("reason %q, want %q", sub.Reason(), ReasonDeleted)
		}
	}
	if eng.Tracked("a") {
		t.Fatal("dropped dataset still tracked")
	}
	if !eng.Tracked("b") {
		t.Fatal("unrelated dataset lost")
	}
	// Appends to b must now be inert for the removed two-set sub.
	eng.Append(context.Background(), "b", fromPoints([][]float64{{1, 1}, {1, 1.01}}), 1)
	if eng.Subscriptions() != 0 {
		t.Fatalf("want no live subscriptions, got %d", eng.Subscriptions())
	}
}

// TestShutdownTerminatesAll covers the daemon's graceful-exit hook.
func TestShutdownTerminatesAll(t *testing.T) {
	eng := New(Hooks{})
	eng.Track("a", fromPoints([][]float64{{0}}), 0.1)
	sub, _ := eng.Subscribe(Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{})
	eng.Shutdown()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("expected closed channel after shutdown")
	}
	if sub.Reason() != ReasonShutdown {
		t.Fatalf("reason %q, want %q", sub.Reason(), ReasonShutdown)
	}
	if _, err := eng.Subscribe(Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{}); err == nil {
		t.Fatal("Subscribe after Shutdown should fail")
	}
}

// TestDesyncDropsTracking: a gapped sequence token means a batch
// notification was lost; the engine must fail the affected streams
// loudly rather than silently under-deliver.
func TestDesyncDropsTracking(t *testing.T) {
	eng := New(Hooks{})
	eng.Track("a", fromPoints([][]float64{{0, 0}}), 0.1)
	sub, _ := eng.Subscribe(Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{})
	gapped := fromPoints([][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0.5, 0.5}})
	eng.Append(context.Background(), "a", gapped, 1) // gap: the index has 1, 1+1 != 5
	if _, ok := <-sub.Events(); ok {
		t.Fatal("expected closed channel after desync")
	}
	if sub.Reason() != ReasonDesync {
		t.Fatalf("reason %q, want %q", sub.Reason(), ReasonDesync)
	}
	if eng.Tracked("a") {
		t.Fatal("desynced dataset still tracked")
	}
}

// TestStaleAndReplayedAppendsIgnored: totals at or below the indexed
// length are duplicates of batches the seed snapshot already contained.
func TestStaleAndReplayedAppendsIgnored(t *testing.T) {
	eng := New(Hooks{})
	eng.Track("a", fromPoints([][]float64{{0, 0}, {1, 1}}), 0.1)
	sub, _ := eng.Subscribe(Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{Buffer: 4})
	eng.Append(context.Background(), "a", fromPoints([][]float64{{0, 0}, {1, 1}}), 1) // replay of the seeded batch
	if evs := drain(sub); len(evs) != 0 {
		t.Fatalf("replayed append produced %d events, want 0", len(evs))
	}
	if got := eng.Seq("a"); got != 2 {
		t.Fatalf("seq %d, want 2", got)
	}
}

// TestTrackSyncsPrefixMirror: re-tracking with a longer snapshot (appends
// landed while nothing subscribed) silently syncs the tail.
func TestTrackSyncsPrefixMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	all := randPoints(rng, 60, 3)
	eng := New(Hooks{})
	eng.Track("a", fromPoints(all[:20]), 0.15)
	// Appends happened elsewhere; Track again with the longer snapshot.
	eng.Track("a", fromPoints(all[:50]), 0.15)
	sub, err := eng.Subscribe(Query{Dataset: "a", Eps: 0.15, Metric: vec.L2}, Options{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng.Append(context.Background(), "a", fromPoints(all), 10)
	var want [][2]int
	for _, p := range oracleSelf(all, vec.L2, 0.15) {
		if p[1] >= 50 {
			want = append(want, p)
		}
	}
	pairsEqual(t, collectPairs(drain(sub)), want)
}

// TestSubscribeValidation exercises the query guards.
func TestSubscribeValidation(t *testing.T) {
	eng := New(Hooks{})
	eng.Track("a", fromPoints([][]float64{{0, 0}}), 0.1)
	eng.Track("b3", fromPoints([][]float64{{0, 0, 0}}), 0.1)
	cases := []struct {
		name string
		q    Query
		opt  Options
	}{
		{"zero eps", Query{Dataset: "a", Eps: 0, Metric: vec.L2}, Options{}},
		{"unknown dataset", Query{Dataset: "nope", Eps: 0.1, Metric: vec.L2}, Options{}},
		{"unknown other", Query{Dataset: "a", Other: "nope", Eps: 0.1, Metric: vec.L2}, Options{}},
		{"self as other", Query{Dataset: "a", Other: "a", Eps: 0.1, Metric: vec.L2}, Options{}},
		{"dims mismatch", Query{Dataset: "a", Other: "b3", Eps: 0.1, Metric: vec.L2}, Options{}},
		{"after beyond len", Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{After: intp(9)}},
		{"negative after", Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{After: intp(-1)}},
	}
	for _, tc := range cases {
		if _, err := eng.Subscribe(tc.q, tc.opt); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if eng.Subscriptions() != 0 {
		t.Fatalf("failed subscriptions leaked: %d", eng.Subscriptions())
	}
}

func intp(v int) *int { return &v }

// TestConcurrentAppendAndSubscribe race-checks the engine under -race:
// appends, subscriptions and drops from many goroutines.
func TestConcurrentAppendAndSubscribe(t *testing.T) {
	eng := New(Hooks{})
	eng.Track("a", fromPoints([][]float64{{0, 0}}), 0.1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pts := [][]float64{{0, 0}}
		for i := 0; i < 50; i++ {
			pts = append(pts, []float64{float64(i), 0})
			eng.Append(context.Background(), "a", fromPoints(pts), 1)
		}
	}()
	for i := 0; i < 20; i++ {
		sub, err := eng.Subscribe(Query{Dataset: "a", Eps: 0.1, Metric: vec.L2}, Options{Buffer: 4})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range sub.Events() {
			}
		}()
		if i%5 == 4 {
			eng.Unsubscribe(sub.ID())
		}
	}
	<-done
	eng.Shutdown()
}

func ExampleEngine() {
	eng := New(Hooks{})
	eng.Track("pts", fromPoints([][]float64{{0, 0}, {5, 5}}), 0.2)
	sub, _ := eng.Subscribe(Query{Dataset: "pts", Eps: 0.2, Metric: vec.L2}, Options{})
	eng.Append(context.Background(), "pts", fromPoints([][]float64{{0, 0}, {5, 5}, {0.1, 0}}), 1)
	ev := <-sub.Events()
	fmt.Println(ev.Seq, ev.Pairs)
	// Output: 3 [[0 2]]
}
