package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

var allMetrics = []vec.Metric{vec.L2, vec.L1, vec.Linf}

// duplicateFixture is blobFixture with every point present three times.
func duplicateFixture(seed int64, n, dims int) *dataset.Dataset {
	base := blobFixture(seed, n/3, dims)
	ds := dataset.New(dims, n)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < base.Len(); i++ {
			ds.Append(base.Point(i))
		}
	}
	return ds
}

// epsFor returns a threshold under m that keeps a fair share of the pairs
// inside a blob — σ is 0.05 per coordinate, so same-blob distances sit near
// 0.05·√(2d) under L2, 0.056·d under L1 and ≈ 0.2 under L∞ — or, for
// uniform data, of all pairs (√(d/6), d/3 and, at d = 64, ≈ 0.9).
func epsFor(m vec.Metric, dims int, uniform bool) float64 {
	switch {
	case m == vec.L1 && uniform:
		return 0.31 * float64(dims)
	case m == vec.L1:
		return 0.052 * float64(dims)
	case m == vec.Linf && uniform:
		return 0.85
	case m == vec.Linf:
		return 0.17
	case uniform:
		return 0.37 * math.Sqrt(float64(dims))
	}
	return 0.062 * math.Sqrt(float64(dims))
}

func collect(run func(sink pairs.Sink), canonical bool) []pairs.Pair {
	c := &pairs.Collector{Canonical: canonical}
	run(c)
	return c.Sorted()
}

func mustEqual(t *testing.T, what string, got, want []pairs.Pair) {
	t.Helper()
	if d := pairs.Dedup(got); len(d) != len(got) {
		t.Fatalf("%s: %d duplicate pairs", what, len(got)-len(d))
	}
	if !pairs.Equal(got, want) {
		t.Fatalf("%s: %s", what, pairs.Diff(got, want))
	}
}

// TestPivotKeysOracle holds every way of running a join over a tree
// forced onto pivot keys to the brute-force pair set: each metric, self and
// two-set, serial and parallel, streaming, a smaller query ε on the same
// tree, and the dynamic operations.
func TestPivotKeysOracle(t *testing.T) {
	shapes := []struct {
		name string
		ds   *dataset.Dataset
		leaf int
	}{
		{"blobs32", blobFixture(11, 700, 32), 16},
		{"blobs64", blobFixture(12, 700, 64), 0},
		{"uniform64", uniformFixture(13, 400, 64), 8},
		{"duplicates", duplicateFixture(14, 600, 32), 16},
		{"tiny", blobFixture(15, 100, 32), 0}, // n < 2·leaf: the root is one leaf
	}
	for _, s := range shapes {
		for _, m := range allMetrics {
			t.Run(fmt.Sprintf("%s/%v", s.name, m), func(t *testing.T) {
				eps := epsFor(m, s.ds.Dims(), s.name == "uniform64")
				cfg := Config{LeafThreshold: s.leaf, Metric: m, keys: keysPivot}
				opt := join.Options{Metric: m, Eps: eps, Workers: 3}
				ds := s.ds

				tr := Build(ds, eps, cfg)
				if !strings.HasPrefix(tr.Keys(), "pivot/") {
					t.Fatalf("forced build keyed %q", tr.Keys())
				}
				if err := tr.checkInvariants(); err != nil {
					t.Fatal(err)
				}
				want := collect(func(s pairs.Sink) { brute.SelfJoin(ds, opt, s) }, true)
				if len(want) == 0 || len(want) == ds.Len()*(ds.Len()-1)/2 {
					t.Fatalf("degenerate case: %d pairs of %d points", len(want), ds.Len())
				}
				mustEqual(t, "self", collect(func(s pairs.Sink) { tr.SelfJoin(opt, s) }, true), want)
				sh := pairs.NewSharded(true)
				tr.SelfJoinParallel(opt, sh.Handle)
				mustEqual(t, "parallel self", sh.Merged(), want)
				each := &pairs.Collector{Canonical: true}
				tr.SelfJoin(opt, pairs.Func(each.Emit))
				mustEqual(t, "each", each.Sorted(), want)

				// The same tree at a smaller ε.
				small := opt
				small.Eps = eps * 0.8
				mustEqual(t, "smaller eps",
					collect(func(s pairs.Sink) { tr.SelfJoin(small, s) }, true),
					collect(func(s pairs.Sink) { brute.SelfJoin(ds, small, s) }, true))

				// Two-set: the halves of the data against each other.
				half := ds.Len() / 2
				a, b := ds.Head(half), ds.Subset(seq(half, ds.Len()))
				ta, tb := BuildPair(a, b, eps, cfg)
				wantAB := collect(func(s pairs.Sink) { brute.Join(a, b, opt, s) }, false)
				mustEqual(t, "two-set", collect(func(s pairs.Sink) { JoinTrees(ta, tb, opt, s) }, false), wantAB)
				sh = pairs.NewSharded(false)
				JoinTreesParallel(ta, tb, opt, sh.Handle)
				mustEqual(t, "parallel two-set", sh.Merged(), wantAB)

				// Range queries around data points and around a far point.
				rng := rand.New(rand.NewSource(1))
				far := make([]float64, ds.Dims())
				for k := range far {
					far[k] = 1e6
				}
				for trial := 0; trial < 20; trial++ {
					q := ds.Point(rng.Intn(ds.Len()))
					if trial == 0 {
						q = far
					}
					radius := eps * (0.3 + 0.7*rng.Float64())
					var got []int
					tr.RangeQuery(q, m, radius, nil, func(i int) { got = append(got, i) })
					sort.Ints(got)
					var scan []int
					th := vec.Threshold(m, radius)
					for i := 0; i < ds.Len(); i++ {
						if vec.Within(m, q, ds.Point(i), th) {
							scan = append(scan, i)
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(scan) {
						t.Fatalf("range query %d: %d hits, scan %d", trial, len(got), len(scan))
					}
				}

				// Grow a tree from a prefix — the appended points include one far
				// outside every earlier key — delete a third, and join.
				grow := ds.Head(half).Clone()
				dyn := Build(grow, eps, cfg)
				for i := half; i < ds.Len(); i++ {
					grow.Append(ds.Point(i))
					dyn.Insert(i)
				}
				for rep := 0; rep < 2; rep++ {
					grow.Append(far)
					dyn.Insert(grow.Len() - 1)
				}
				alive := make([]int, 0, grow.Len())
				for i := 0; i < grow.Len(); i++ {
					if i%3 == 1 {
						if !dyn.Delete(i) {
							t.Fatalf("Delete(%d) reported missing", i)
						}
						continue
					}
					alive = append(alive, i)
				}
				sub := grow.Subset(alive)
				wantDyn := &pairs.Collector{Canonical: true}
				for _, p := range collect(func(s pairs.Sink) { brute.SelfJoin(sub, opt, s) }, true) {
					wantDyn.Emit(alive[p.I], alive[p.J])
				}
				mustEqual(t, "insert/delete", collect(func(s pairs.Sink) { dyn.SelfJoin(opt, s) }, true), wantDyn.Sorted())
			})
		}
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestChooseKeys pins the build's pick on the shapes it was tuned on:
// pivot keys where one raw coordinate per level has stopped filtering
// (clustered data at d ≥ 16), raw coordinates where they still filter
// (low d) and where nothing does (uniform data). A raw pick must cost
// nothing: it is the tree, and so the candidate count, of a build that
// never looked.
func TestChooseKeys(t *testing.T) {
	for _, c := range []struct {
		name  string
		ds    *dataset.Dataset
		eps   float64
		pivot bool
	}{
		{"blobs d=64", blobFixture(1, 3600, 64), 0.48, true},
		{"blobs d=32", blobFixture(1, 3600, 32), 0.34, true},
		{"blobs d=16", blobFixture(1, 6000, 16), 0.24, true},
		{"blobs d=8", blobFixture(1, 12000, 8), 0.11, false},
		{"blobs d=8 small eps", blobFixture(1, 10000, 8), 0.05, false},
		{"uniform d=8", uniformFixture(1, 12000, 8), 0.2, false},
		{"uniform d=16", uniformFixture(1, 6000, 16), 0.6, false},
		{"uniform d=64", uniformFixture(1, 3600, 64), 2.4, false},
	} {
		tr := Build(c.ds, c.eps, Config{})
		if got := strings.HasPrefix(tr.Keys(), "pivot/"); got != c.pivot {
			t.Errorf("%s: keyed %q, want pivot keys = %v", c.name, tr.Keys(), c.pivot)
		}
		if planned := PlanKeys(c.eps, Config{}, c.ds); planned != tr.Keys() {
			t.Errorf("%s: PlanKeys = %q, Build took %q", c.name, planned, tr.Keys())
		}
		if tr.piv != nil && tr.MemoryBytes() < 8*len(tr.pkeys) {
			t.Errorf("%s: MemoryBytes %d does not cover the %d-entry key table", c.name, tr.MemoryBytes(), len(tr.pkeys))
		}
		if c.pivot || testing.Short() {
			continue
		}
		count := func(tr *Tree) stats.Snapshot {
			var cn stats.Counters
			tr.SelfJoin(join.Options{Eps: c.eps, Counters: &cn}, &pairs.Counter{})
			return cn.Snapshot()
		}
		if got, want := count(tr), count(Build(c.ds, c.eps, Config{keys: keysRaw})); got != want {
			t.Errorf("%s: raw pick counted %+v, a forced-raw build %+v", c.name, got, want)
		}
	}
}

// TestPivotKeysDeterministic: the sample is seeded, so two builds over the
// same data choose the same pivots and count the same candidates.
func TestPivotKeysDeterministic(t *testing.T) {
	ds := blobFixture(5, 2000, 64)
	var cands [2]int64
	var trees [2]*Tree
	for i := range trees {
		trees[i] = Build(ds, 0.48, Config{})
		var c stats.Counters
		trees[i].SelfJoin(join.Options{Eps: 0.48, Counters: &c}, &pairs.Counter{})
		cands[i] = c.Snapshot().Candidates
	}
	if trees[0].piv == nil {
		t.Fatal("fixture no longer takes pivot keys")
	}
	if !vec.Equal(trees[0].piv.pts, trees[1].piv.pts) || cands[0] != cands[1] {
		t.Errorf("two builds differ: %d vs %d candidates", cands[0], cands[1])
	}
}

// TestPivotKeysRefuseUnboundedMetric: keys computed under L2 are not
// 1-Lipschitz for L∞, so an L∞ join or range query over them would lose
// pairs and must panic instead; L1, which L2 bounds, is answered.
func TestPivotKeysRefuseUnboundedMetric(t *testing.T) {
	ds := blobFixture(6, 400, 32)
	tr := Build(ds, 0.3, Config{Metric: vec.L2, keys: keysPivot})
	tr.SelfJoin(join.Options{Metric: vec.L1, Eps: 0.3}, &pairs.Counter{})
	for name, fn := range map[string]func(){
		"SelfJoin": func() { tr.SelfJoin(join.Options{Metric: vec.Linf, Eps: 0.3}, &pairs.Counter{}) },
		"SelfJoinParallel": func() {
			tr.SelfJoinParallel(join.Options{Metric: vec.Linf, Eps: 0.3}, func() pairs.Sink { return &pairs.Counter{} })
		},
		"RangeQuery": func() { tr.RangeQuery(ds.Point(0), vec.Linf, 0.1, nil, func(int) {}) },
		"JoinTrees": func() {
			ta, tb := BuildPair(ds, ds, 0.3, Config{Metric: vec.L1, keys: keysPivot})
			JoinTrees(ta, tb, join.Options{Metric: vec.L2, Eps: 0.3}, &pairs.Counter{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s under a metric the keys do not bound did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPivotKeysBoundaryTranslated joins sets made of pairs at exactly ε.
// Points sit on lines p + m·v with integer v, far from the origin
// (+1e6 per coordinate, which integers survive exactly), and ε is |v| —
// so along a line through a pivot the true keys differ by exactly ε while
// the computed ones (√ of non-squares under L2) carry their rounding. Any
// window or stripe that trusted computed keys to the last bit would drop
// some of those pairs; the slack must keep them all. The tenth-scale set
// adds coordinates that are not exactly representable.
func TestPivotKeysBoundaryTranslated(t *testing.T) {
	step := []float64{1, 2, 0, 1, 1} // |v|₂² = 7, |v|₁ = 5, |v|∞ = 2
	for _, scale := range []float64{1, 0.1} {
		rng := rand.New(rand.NewSource(9))
		ds := dataset.New(len(step), 0)
		p := make([]float64, len(step))
		for line := 0; line < 24; line++ {
			v := append([]float64(nil), step...)
			rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
			for k := range v {
				if rng.Intn(2) == 0 {
					v[k] = -v[k]
				}
			}
			base := make([]float64, len(v))
			for k := range base {
				base[k] = float64(rng.Intn(9))
			}
			for m := 0; m < 10; m++ {
				for k := range p {
					p[k] = 1e6 + scale*(base[k]+float64(m)*v[k])
				}
				ds.Append(p)
			}
		}
		for _, m := range allMetrics {
			eps := scale * vec.Dist(m, make([]float64, len(step)), step)
			// Make the closed test accept a pair at exactly ε (√7² rounds
			// below 7).
			for vec.Threshold(m, eps) < scale*scale*7 && m == vec.L2 {
				eps = math.Nextafter(eps, 2*eps)
			}
			opt := join.Options{Metric: m, Eps: eps}
			want := collect(func(s pairs.Sink) { brute.SelfJoin(ds, opt, s) }, true)
			if scale == 1 && len(want) < 24*9 {
				t.Fatalf("%v: only %d pairs within ε: the lines' boundary pairs are missing", m, len(want))
			}
			for _, leaf := range []int{2, 16} {
				tr := Build(ds, eps, Config{LeafThreshold: leaf, Metric: m, keys: keysPivot})
				mustEqual(t, fmt.Sprintf("scale %g %v leaf %d", scale, m, leaf),
					collect(func(s pairs.Sink) { tr.SelfJoin(opt, s) }, true), want)
			}
		}
	}
}

// TestParallelTaskBalance: a pivot-keyed root peels one cluster per level,
// so tasks cut at the root alone leave one worker most of the join. With
// tasks cut below it and handed out heaviest first (simulated here: each
// task goes to the worker that frees up first, its cost the candidates it
// tests), no worker gets more than 1.5× the mean.
func TestParallelTaskBalance(t *testing.T) {
	ds := blobFixture(1, 3600, 64)
	tr := Build(ds, 0.48, Config{})
	if tr.piv == nil {
		t.Fatal("fixture no longer takes pivot keys")
	}
	opt := join.Options{Eps: 0.48}
	for _, workers := range []int{2, 4} {
		load := make([]int64, workers)
		var total int64
		tasks, _ := cutTasks(selfTask(tr.root, 0), workers)
		for _, tk := range tasks {
			j := tr.newJoiner(opt, &pairs.Counter{})
			j.run(tk)
			least := 0
			for w := range load {
				if load[w] < load[least] {
					least = w
				}
			}
			load[least] += j.cand
			total += j.cand
		}
		var max int64
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		if ratio := float64(max) * float64(workers) / float64(total); ratio > 1.5 {
			t.Errorf("%d workers: heaviest tests %.2f× the mean candidates (loads %v)", workers, ratio, load)
		}
	}
}
