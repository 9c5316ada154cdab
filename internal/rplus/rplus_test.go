package rplus

import (
	"math/rand"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/jointest"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

func TestSelfJoinOracle(t *testing.T) {
	jointest.CheckSelf(t, SelfJoin, 60, 1001)
}

func TestJoinOracle(t *testing.T) {
	jointest.CheckJoin(t, Join, 60, 1002)
}

func TestSelfJoinAdversarial(t *testing.T) {
	jointest.CheckSelfAdversarial(t, SelfJoin)
}

func TestParamVariants(t *testing.T) {
	for _, p := range []struct{ fanOut, leaf int }{{2, 1}, {4, 8}, {16, 64}, {64, 2}} {
		p := p
		fn := func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
			Build(ds, p.fanOut, p.leaf).SelfJoin(opt, sink)
		}
		jointest.CheckSelf(t, fn, 10, 1003+int64(p.fanOut*100+p.leaf))
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(700)
		d := 1 + rng.Intn(10)
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})
		tr := Build(ds, 2+rng.Intn(16), 1+rng.Intn(48))
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d d=%d: %v", n, d, err)
		}
	}
}

func TestBuildDuplicateHeavy(t *testing.T) {
	// Repeated values must not be split across slabs (disjointness) and
	// must not hang the build.
	ds := dataset.New(2, 0)
	for i := 0; i < 300; i++ {
		ds.Append([]float64{float64(i % 4), float64(i % 2)})
	}
	tr := Build(ds, 4, 8)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Fully coincident points collapse into one (oversized) leaf.
	co := dataset.New(3, 0)
	for i := 0; i < 100; i++ {
		co.Append([]float64{1, 2, 3})
	}
	tr2 := Build(co, 4, 8)
	if err := tr2.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var sink pairs.Counter
	tr2.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.5}, &sink)
	if sink.N() != 100*99/2 {
		t.Errorf("coincident join = %d, want %d", sink.N(), 100*99/2)
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(empty) did not panic")
		}
	}()
	Build(dataset.New(2, 0), 0, 0)
}

// TestDisjointnessBeatsRTreeOverlap: on clustered data the R+-tree's
// disjoint regions must prune at least as well as a quadratic baseline —
// sanity that the structure is actually filtering.
func TestJoinPrunes(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 4000, Dims: 3, Seed: 4, Dist: synth.Uniform})
	var c stats.Counters
	var sink pairs.Counter
	SelfJoin(ds, join.Options{Metric: vec.L2, Eps: 0.03, Counters: &c}, &sink)
	quad := int64(ds.Len()) * int64(ds.Len()-1) / 2
	if got := c.Snapshot().Candidates; got*4 > quad {
		t.Errorf("candidates %d not well below quadratic %d", got, quad)
	}
	if c.Snapshot().NodeVisits == 0 {
		t.Error("node visits not counted")
	}
}

func TestJoinTreesAsymmetric(t *testing.T) {
	a := synth.Generate(synth.Config{N: 3000, Dims: 3, Seed: 5, Dist: synth.Uniform})
	b := synth.Generate(synth.Config{N: 7, Dims: 3, Seed: 6, Dist: synth.Uniform})
	opt := join.Options{Metric: vec.L2, Eps: 0.1}
	got := &pairs.Collector{}
	JoinTrees(Build(a, 4, 8), Build(b, 4, 2), opt, got)
	want := &pairs.Collector{}
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if vec.Within(vec.L2, a.Point(i), b.Point(j), opt.Threshold()) {
				want.Emit(i, j)
			}
		}
	}
	if !pairs.Equal(got.Sorted(), want.Sorted()) {
		t.Errorf("asymmetric join wrong: %s", pairs.Diff(got.Pairs, want.Pairs))
	}
}

func TestAccessors(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 100, Dims: 3, Seed: 9, Dist: synth.Uniform})
	tr := Build(ds, 4, 8)
	if tr.Size() < 3 {
		t.Errorf("Size = %d", tr.Size())
	}
	b := tr.Bounds()
	for i := 0; i < ds.Len(); i++ {
		if !b.Contains(ds.Point(i)) {
			t.Fatal("Bounds does not contain all points")
		}
	}
}
