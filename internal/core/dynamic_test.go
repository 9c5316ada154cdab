package core

import (
	"math/rand"
	"sort"
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// TestInsertMatchesBatchBuild: a tree grown point by point must give the
// same join answer (and satisfy the same invariants) as a batch build.
func TestInsertMatchesBatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(400)
		d := 1 + rng.Intn(8)
		eps := 0.05 + rng.Float64()*0.3
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})

		batch := Build(ds, eps, Config{LeafThreshold: 1 + rng.Intn(32)})

		// The dynamic pattern: build an empty tree over a growable dataset
		// with a pre-sized frame, then append+insert point by point.
		grow := dataset.New(d, n)
		dyn := BuildWithBox(grow, eps, ds.Bounds(), Config{LeafThreshold: batch.leafThreshold})
		for i := 0; i < n; i++ {
			grow.Append(ds.Point(i))
			dyn.Insert(i)
		}
		if err := dyn.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := join.Options{Metric: vec.L2, Eps: eps}
		want := &pairs.Collector{Canonical: true}
		batch.SelfJoin(opt, want)
		got := &pairs.Collector{Canonical: true}
		dyn.SelfJoin(opt, got)
		if !pairs.Equal(got.Sorted(), want.Sorted()) {
			t.Fatalf("trial %d (n=%d d=%d eps=%g): %s", trial, n, d, eps, pairs.Diff(got.Pairs, want.Pairs))
		}
	}
}

// TestBuildReleasesScratch: a built tree keeps no per-point build
// scratch, and an Insert after the build, which needs it again, still
// answers the brute-force pair set.
func TestBuildReleasesScratch(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 3000, Dims: 4, Seed: 5, Dist: synth.Uniform})
	const eps = 0.1
	grow := dataset.New(4, ds.Len())
	for i := 0; i < 2000; i++ {
		grow.Append(ds.Point(i))
	}
	tr := BuildWithBox(grow, eps, ds.Bounds(), Config{})
	if c := cap(tr.scratch); c != 0 {
		t.Fatalf("built tree holds a %d-element build scratch", c)
	}
	for i := 2000; i < ds.Len(); i++ {
		grow.Append(ds.Point(i))
		tr.Insert(i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	opt := join.Options{Metric: vec.L2, Eps: eps}
	want := &pairs.Collector{Canonical: true}
	brute.SelfJoin(grow, opt, want)
	got := &pairs.Collector{Canonical: true}
	tr.SelfJoin(opt, got)
	if len(want.Pairs) == 0 || !pairs.Equal(got.Sorted(), want.Sorted()) {
		t.Fatalf("after inserts past the build (%d pairs): %s", len(want.Pairs), pairs.Diff(got.Pairs, want.Pairs))
	}
}

func TestInsertOutOfFrame(t *testing.T) {
	// Build the frame over the unit square, then insert points far outside
	// it; clamping must keep the join exact.
	frame := dataset.FromPoints([][]float64{{0, 0}, {1, 1}}).Bounds()
	ds := dataset.New(2, 0)
	tr := BuildWithBox(ds, 0.1, frame, Config{LeafThreshold: 1})
	for _, p := range [][]float64{{0, 0}, {1, 1}, {5, 5}, {5.05, 5}, {-3, 0.5}} {
		ds.Append(p)
		tr.Insert(ds.Len() - 1)
	}
	got := &pairs.Collector{Canonical: true}
	tr.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.1}, got)
	want := []pairs.Pair{{I: 2, J: 3}} // only the two far-out points match
	if !pairs.Equal(got.Sorted(), want) {
		t.Errorf("out-of-frame join = %v, want %v", got.Pairs, want)
	}
}

func TestInsertPanics(t *testing.T) {
	empty := Build(dataset.New(2, 0), 0.5, Config{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Insert into empty-frame tree did not panic")
			}
		}()
		empty.Insert(0)
	}()
	ds := dataset.FromPoints([][]float64{{0, 0}})
	tr := Build(ds, 0.5, Config{})
	defer func() {
		if recover() == nil {
			t.Error("Insert of out-of-range index did not panic")
		}
	}()
	tr.Insert(5)
}

func TestRangeQueryMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := synth.Generate(synth.Config{N: 1500, Dims: 5, Seed: 3, Dist: synth.GaussianClusters})
	tr := Build(ds, 0.2, Config{LeafThreshold: 16, Metric: vec.Linf}) // L∞ keys bound all three
	for trial := 0; trial < 60; trial++ {
		q := make([]float64, 5)
		for k := range q {
			q[k] = rng.Float64()*1.2 - 0.1 // sometimes outside the frame
		}
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
			radius := 0.01 + rng.Float64()*0.19 // ≤ build ε
			var got []int
			tr.RangeQuery(q, m, radius, nil, func(i int) { got = append(got, i) })
			sort.Ints(got)
			th := vec.Threshold(m, radius)
			var want []int
			for i := 0; i < ds.Len(); i++ {
				if vec.Within(m, q, ds.Point(i), th) {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%v r=%g: %d hits, want %d", m, radius, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v r=%g: hit set differs", m, radius)
				}
			}
		}
	}
}

func TestRangeQueryPanics(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{0, 0}, {1, 1}})
	tr := Build(ds, 0.25, Config{})
	for name, fn := range map[string]func(){
		"radius above eps": func() { tr.RangeQuery([]float64{0, 0}, vec.L2, 0.3, nil, func(int) {}) },
		"zero radius":      func() { tr.RangeQuery([]float64{0, 0}, vec.L2, 0, nil, func(int) {}) },
		"dim mismatch":     func() { tr.RangeQuery([]float64{0}, vec.L2, 0.1, nil, func(int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRangeQueryCountersAndPruning(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 20000, Dims: 4, Seed: 4, Dist: synth.Uniform})
	tr := Build(ds, 0.05, Config{LeafThreshold: 32})
	var c stats.Counters
	hits := 0
	tr.RangeQuery([]float64{0.5, 0.5, 0.5, 0.5}, vec.L2, 0.05, &c, func(int) { hits++ })
	s := c.Snapshot()
	if s.NodeVisits == 0 {
		t.Error("node visits not counted")
	}
	if s.DistComps > int64(ds.Len())/20 {
		t.Errorf("tested %d of %d points; stripe pruning ineffective", s.DistComps, ds.Len())
	}
}

func TestRangeQueryEmptyTree(t *testing.T) {
	tr := BuildWithBox(dataset.New(3, 0), 0.5, vec.NewBox([]float64{0, 0, 0}, []float64{1, 1, 1}), Config{})
	called := false
	tr.RangeQuery([]float64{0.5, 0.5, 0.5}, vec.L2, 0.5, nil, func(int) { called = true })
	if called {
		t.Error("empty tree range query visited something")
	}
}

// TestRangeQueryBoundaries puts points and queries on stripe edges and
// pairs at exactly the radius — the ties the gap pruning must keep — for
// every tree kind and metric. On the dyadic grid every difference is
// exact; on the decimal one the edges are rounded products.
func TestRangeQueryBoundaries(t *testing.T) {
	for _, g := range []struct {
		eps, step float64
	}{{0.25, 1.0 / 16}, {0.3, 0.3 / 4}} {
		ds := dataset.New(2, 0)
		for x := 0; x <= 8; x++ {
			for y := 0; y <= 8; y++ {
				ds.Append([]float64{float64(x) * 2 * g.step, float64(y) * 2 * g.step})
			}
		}
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
			trees := map[string]*Tree{
				"raw":    Build(ds, g.eps, Config{LeafThreshold: 1, keys: keysRaw}),
				"pivot":  Build(ds, g.eps, Config{LeafThreshold: 1, Metric: m, keys: keysPivot}),
				"inset":  BuildWithBox(ds, g.eps, ds.Head(20).Bounds(), Config{LeafThreshold: 2}),
				"biased": Build(ds, g.eps, Config{LeafThreshold: 3, BiasedSplit: true, keys: keysRaw}),
			}
			for name, tr := range trees {
				for _, radius := range []float64{g.eps / 2, g.eps} {
					th := vec.Threshold(m, radius)
					for x := -10; x <= 26; x++ {
						for y := -10; y <= 26; y++ {
							q := []float64{float64(x) * g.step, float64(y) * g.step}
							got := map[int]bool{}
							tr.RangeQuery(q, m, radius, nil, func(i int) { got[i] = true })
							for i := 0; i < ds.Len(); i++ {
								if want := vec.Within(m, q, ds.Point(i), th); want != got[i] {
									t.Fatalf("ε=%g %s %v r=%g query %v: point %v within %v, in answer %v",
										g.eps, name, m, radius, q, ds.Point(i), want, got[i])
								}
							}
						}
					}
				}
			}
		}
	}
}
