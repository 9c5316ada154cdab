package core

import (
	"math/rand"
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/jointest"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

func TestSelfJoinOracle(t *testing.T) {
	jointest.CheckSelf(t, SelfJoin, 80, 801)
}

func TestJoinOracle(t *testing.T) {
	jointest.CheckJoin(t, Join, 80, 802)
}

func TestSelfJoinAdversarial(t *testing.T) {
	jointest.CheckSelfAdversarial(t, SelfJoin)
}

func TestLeafThresholdVariants(t *testing.T) {
	for _, leaf := range []int{1, 2, 5, 16, 1000} {
		fn := func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
			tr := Build(ds, opt.Eps, Config{LeafThreshold: leaf, Metric: opt.Metric})
			tr.SelfJoin(opt, sink)
		}
		jointest.CheckSelf(t, fn, 12, 810+int64(leaf))
	}
}

func TestBiasedSplitOracle(t *testing.T) {
	cfg := Config{BiasedSplit: true, LeafThreshold: 8}
	fn := func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		cfg := cfg
		cfg.Metric = opt.Metric
		tr := Build(ds, opt.Eps, cfg)
		tr.SelfJoin(opt, sink)
	}
	jointest.CheckSelf(t, fn, 30, 820)
	jfn := func(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		box := a.Bounds()
		box.ExtendBox(b.Bounds())
		ta := BuildWithBox(a, opt.Eps, box, cfg)
		tb := BuildWithBox(b, opt.Eps, box, cfg)
		JoinTrees(ta, tb, opt, sink)
	}
	jointest.CheckJoin(t, jfn, 30, 821)
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(600)
		d := 1 + rng.Intn(10)
		cfg := Config{LeafThreshold: 1 + rng.Intn(64), BiasedSplit: rng.Intn(2) == 1}
		eps := 0.02 + rng.Float64()*0.5
		var ds *dataset.Dataset
		if n == 0 {
			ds = dataset.New(d, 0)
		} else {
			ds = synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})
		}
		tr := Build(ds, eps, cfg)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d d=%d eps=%g cfg=%+v: %v", n, d, eps, cfg, err)
		}
		if tr.MaxDepth() > d {
			t.Fatalf("depth %d exceeds dimensionality %d", tr.MaxDepth(), d)
		}
	}
}

func TestBuildPanics(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{1, 2}})
	for name, fn := range map[string]func(){
		"zero eps":     func() { Build(ds, 0, Config{}) },
		"negative eps": func() { Build(ds, -1, Config{}) },
		"box mismatch": func() { BuildWithBox(ds, 0.5, vec.NewEmptyBox(3), Config{}) },
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

func TestJoinEpsAboveBuildPanics(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{0}, {1}})
	tr := Build(ds, 0.5, Config{})
	defer func() {
		if recover() == nil {
			t.Error("eps above build eps did not panic")
		}
	}()
	tr.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.6}, &pairs.Counter{})
}

// TestMultiEpsQueries: one tree built at the largest ε answers every
// smaller ε exactly (build-once-query-many).
func TestMultiEpsQueries(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 2000, Dims: 6, Seed: 20, Dist: synth.GaussianClusters})
	const buildEps = 0.2
	// Keys under L∞ bound every metric, so this one tree may serve all three.
	tr := Build(ds, buildEps, Config{LeafThreshold: 16, Metric: vec.Linf})
	for _, qeps := range []float64{0.01, 0.05, 0.1, 0.2} {
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
			opt := join.Options{Metric: m, Eps: qeps}
			want := &pairs.Collector{Canonical: true}
			brute.SelfJoin(ds, opt, want)
			got := &pairs.Collector{Canonical: true}
			tr.SelfJoin(opt, got)
			if !pairs.Equal(got.Sorted(), want.Sorted()) {
				t.Fatalf("qeps=%g %v: %s", qeps, m, pairs.Diff(got.Pairs, want.Pairs))
			}
		}
	}
	// Parallel variant honors the smaller ε too.
	opt := join.Options{Metric: vec.L2, Eps: 0.05, Workers: 4}
	want := &pairs.Collector{Canonical: true}
	brute.SelfJoin(ds, opt, want)
	sh := pairs.NewSharded(true)
	tr.SelfJoinParallel(opt, sh.Handle)
	if !pairs.Equal(sh.Merged(), want.Sorted()) {
		t.Errorf("parallel multi-eps wrong: %s", pairs.Diff(sh.Merged(), want.Pairs))
	}
}

// TestMultiEpsTwoTree: the two-tree join also accepts any ε ≤ build ε.
func TestMultiEpsTwoTree(t *testing.T) {
	a := synth.Generate(synth.Config{N: 800, Dims: 4, Seed: 21, Dist: synth.GaussianClusters})
	b := synth.Generate(synth.Config{N: 800, Dims: 4, Seed: 21, Dist: synth.GaussianClusters})
	box := a.Bounds()
	box.ExtendBox(b.Bounds())
	ta := BuildWithBox(a, 0.2, box, Config{})
	tb := BuildWithBox(b, 0.2, box, Config{})
	for _, qeps := range []float64{0.03, 0.1} {
		opt := join.Options{Metric: vec.L2, Eps: qeps}
		want := &pairs.Collector{}
		brute.Join(a, b, opt, want)
		got := &pairs.Collector{}
		JoinTrees(ta, tb, opt, got)
		if !pairs.Equal(got.Sorted(), want.Sorted()) {
			t.Fatalf("qeps=%g: %s", qeps, pairs.Diff(got.Pairs, want.Pairs))
		}
	}
}

func TestJoinTreesFrameMismatchPanics(t *testing.T) {
	a := dataset.FromPoints([][]float64{{0}, {1}})
	b := dataset.FromPoints([][]float64{{0}, {2}})
	ta := Build(a, 0.5, Config{}) // frames differ: separate bounding boxes
	tb := Build(b, 0.5, Config{})
	defer func() {
		if recover() == nil {
			t.Error("frame mismatch did not panic")
		}
	}()
	JoinTrees(ta, tb, join.Options{Metric: vec.L2, Eps: 0.5}, &pairs.Counter{})
}

func TestEmptyTrees(t *testing.T) {
	empty := dataset.New(3, 0)
	tr := Build(empty, 0.5, Config{})
	var sink pairs.Counter
	tr.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.5}, &sink)
	if sink.N() != 0 {
		t.Error("empty self-join produced pairs")
	}
	one := dataset.FromPoints([][]float64{{0.1, 0.2, 0.3}})
	Join(empty, one, join.Options{Metric: vec.L2, Eps: 0.5}, &sink)
	Join(one, empty, join.Options{Metric: vec.L2, Eps: 0.5}, &sink)
	if sink.N() != 0 {
		t.Error("empty two-set joins produced pairs")
	}
}

func TestStripeOf(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{0}, {1}})
	tr := Build(ds, 0.25, Config{})
	if tr.stripes[0] != 4 {
		t.Fatalf("stripes = %d, want 4", tr.stripes[0])
	}
	for _, tc := range []struct {
		v    float64
		want int
	}{{0, 0}, {0.1, 0}, {0.25, 1}, {0.49, 1}, {0.75, 3}, {1.0, 3} /* clamped top edge */} {
		if got := tr.stripeOf(tc.v, 0); got != tc.want {
			t.Errorf("stripeOf(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestAdjacencySoundness exercises the exact-boundary geometry the stripe
// adjacency argument rests on: points exactly ε apart must be found, points
// farther than ε in one dimension must not.
func TestAdjacencySoundness(t *testing.T) {
	eps := 0.25
	ds := dataset.New(1, 0)
	for i := 0; i < 40; i++ {
		ds.Append([]float64{float64(i) * eps}) // consecutive points exactly ε apart
	}
	opt := join.Options{Metric: vec.L2, Eps: eps}
	got := &pairs.Collector{Canonical: true}
	tr := Build(ds, eps, Config{LeafThreshold: 2})
	tr.SelfJoin(opt, got)
	if len(got.Sorted()) != 39 {
		t.Errorf("found %d boundary pairs, want 39", len(got.Pairs))
	}
}

// TestDeepTreeCorrectness forces maximal depth (leaf threshold 1, many
// dims) so every recursion path — including leaf-vs-internal at every
// level — is exercised against the oracle.
func TestDeepTreeCorrectness(t *testing.T) {
	for _, d := range []int{4, 8, 14} {
		ds := synth.Generate(synth.Config{N: 300, Dims: d, Seed: int64(d), Dist: synth.GaussianClusters})
		opt := join.Options{Metric: vec.L2, Eps: 0.15}
		want := &pairs.Collector{Canonical: true}
		brute.SelfJoin(ds, opt, want)
		got := &pairs.Collector{Canonical: true}
		tr := Build(ds, opt.Eps, Config{LeafThreshold: 1})
		tr.SelfJoin(opt, got)
		g := pairs.Dedup(got.Sorted())
		if len(g) != len(got.Pairs) {
			t.Errorf("d=%d: duplicates emitted", d)
		}
		if !pairs.Equal(g, want.Sorted()) {
			t.Errorf("d=%d: %s", d, pairs.Diff(g, want.Pairs))
		}
	}
}

// TestCandidatePruning: the ε-kdB tree must inspect dramatically fewer
// candidates than the quadratic bound on selective workloads.
func TestCandidatePruning(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 5000, Dims: 8, Seed: 9, Dist: synth.Uniform})
	var c stats.Counters
	var sink pairs.Counter
	SelfJoin(ds, join.Options{Metric: vec.L2, Eps: 0.1, Counters: &c}, &sink)
	quad := int64(ds.Len()) * int64(ds.Len()-1) / 2
	if got := c.Snapshot().Candidates; got*20 > quad {
		t.Errorf("candidates %d not ≪ quadratic %d", got, quad)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, dist := range synth.AllDistributions() {
		ds := synth.Generate(synth.Config{N: 4000, Dims: 6, Seed: 10, Dist: dist})
		opt := join.Options{Metric: vec.L2, Eps: 0.07, Workers: 4}
		serial := &pairs.Collector{Canonical: true}
		tr := Build(ds, opt.Eps, Config{})
		tr.SelfJoin(opt, serial)
		sh := pairs.NewSharded(true)
		tr.SelfJoinParallel(opt, sh.Handle)
		got := sh.Merged()
		if !pairs.Equal(got, serial.Sorted()) {
			t.Errorf("%v: parallel differs: %s", dist, pairs.Diff(got, serial.Pairs))
		}
	}
}

func TestParallelTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		ds := dataset.New(2, n)
		for i := 0; i < n; i++ {
			ds.Append([]float64{0.5, 0.5})
		}
		tr := Build(ds, 0.25, Config{})
		sh := pairs.NewSharded(true)
		tr.SelfJoinParallel(join.Options{Metric: vec.L2, Eps: 0.25, Workers: 8}, sh.Handle)
		if got, want := len(sh.Merged()), n*(n-1)/2; got != want {
			t.Errorf("n=%d: %d pairs, want %d", n, got, want)
		}
	}
}

func TestStatsAndMemory(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 2000, Dims: 5, Seed: 11, Dist: synth.Uniform})
	tr := Build(ds, 0.1, Config{LeafThreshold: 32})
	if tr.Nodes() <= 0 || tr.Leaves() <= 0 || tr.Nodes() < tr.Leaves() {
		t.Errorf("implausible node/leaf counts: %d/%d", tr.Nodes(), tr.Leaves())
	}
	if tr.MemoryBytes() < 4*ds.Len() {
		t.Errorf("MemoryBytes %d below the raw index-array floor", tr.MemoryBytes())
	}
	if tr.Eps() != 0.1 || tr.Dataset() != ds {
		t.Error("accessors wrong")
	}
}

// TestBiasedSplitUsesWideDimsFirst: with one dominant dimension, biased
// splitting must consume it first.
func TestBiasedSplitUsesWideDimsFirst(t *testing.T) {
	ds := dataset.New(3, 0)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		ds.Append([]float64{rng.Float64() * 0.01, rng.Float64(), rng.Float64() * 0.1})
	}
	tr := Build(ds, 0.05, Config{BiasedSplit: true})
	if tr.order[0] != 1 {
		t.Errorf("first split dim = %d, want 1 (the widest)", tr.order[0])
	}
	if tr.order[2] != 0 {
		t.Errorf("last split dim = %d, want 0 (the narrowest)", tr.order[2])
	}
}
