package kdtree

import (
	"math/rand"
	"sort"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/jointest"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// The oracle runs every join at one worker and at four.
func TestSelfJoinOracle(t *testing.T) {
	for _, w := range []int{1, 4} {
		jointest.CheckSelf(t, jointest.Workers(SelfJoin, w), 60, 401)
	}
}

func TestJoinOracle(t *testing.T) {
	for _, w := range []int{1, 4} {
		jointest.CheckJoin(t, jointest.JoinWorkers(Join, w), 60, 402)
	}
}

func TestSelfJoinAdversarial(t *testing.T) {
	for _, w := range []int{1, 4} {
		jointest.CheckSelfAdversarial(t, jointest.Workers(SelfJoin, w))
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(500)
		d := 1 + rng.Intn(8)
		dist := synth.AllDistributions()[rng.Intn(4)]
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: dist})
		leaf := 1 + rng.Intn(32)
		tr := Build(ds, leaf)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d d=%d leaf=%d dist=%v: %v", n, d, leaf, dist, err)
		}
	}
}

func TestBuildDuplicateHeavy(t *testing.T) {
	// Many coincident points and many ties per dimension — the regime that
	// breaks naive median splits.
	ds := dataset.New(3, 0)
	for i := 0; i < 200; i++ {
		ds.Append([]float64{float64(i % 3), float64(i % 2), 0})
	}
	tr := Build(ds, 4)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// All-coincident set must build (as one leaf) and join correctly.
	co := dataset.New(2, 0)
	for i := 0; i < 50; i++ {
		co.Append([]float64{7, 7})
	}
	tr2 := Build(co, 4)
	if err := tr2.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var sink pairs.Counter
	tr2.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.1}, func() pairs.Sink { return &sink })
	if sink.N() != 50*49/2 {
		t.Errorf("coincident join found %d pairs, want %d", sink.N(), 50*49/2)
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(empty) did not panic")
		}
	}()
	Build(dataset.New(2, 0), 0)
}

func TestRangeQueryMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := synth.Generate(synth.Config{N: 800, Dims: 5, Seed: 3, Dist: synth.GaussianClusters})
	tr := Build(ds, 0)
	for trial := 0; trial < 50; trial++ {
		q := make([]float64, 5)
		for k := range q {
			q[k] = rng.Float64()
		}
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
			eps := 0.05 + rng.Float64()*0.3
			var got []int
			tr.Range(q, m, eps, nil, func(i int) { got = append(got, i) })
			sort.Ints(got)
			var want []int
			th := vec.Threshold(m, eps)
			for i := 0; i < ds.Len(); i++ {
				if vec.Within(m, q, ds.Point(i), th) {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%v eps=%g: %d hits, want %d", m, eps, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v eps=%g: hit set differs", m, eps)
				}
			}
		}
	}
}

func TestRangeDimensionMismatchPanics(t *testing.T) {
	tr := Build(dataset.FromPoints([][]float64{{1, 2}}), 0)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	tr.Range([]float64{1}, vec.L2, 1, nil, func(int) {})
}

func TestRangePrunes(t *testing.T) {
	// A tight query over spread data must visit far fewer nodes than exist.
	ds := synth.Generate(synth.Config{N: 10000, Dims: 3, Seed: 4, Dist: synth.Uniform})
	tr := Build(ds, 8)
	var c stats.Counters
	tr.Range([]float64{0.5, 0.5, 0.5}, vec.L2, 0.02, &c, func(int) {})
	s := c.Snapshot()
	if s.NodeVisits*4 > int64(tr.Size()) {
		t.Errorf("visited %d of %d nodes; pruning ineffective", s.NodeVisits, tr.Size())
	}
	if s.DistComps > int64(ds.Len())/10 {
		t.Errorf("tested %d of %d points; pruning ineffective", s.DistComps, ds.Len())
	}
}

func TestSizeAndDepth(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 1000, Dims: 2, Seed: 5, Dist: synth.Uniform})
	tr := Build(ds, 10)
	if tr.Size() < 100 {
		t.Errorf("Size = %d, implausibly small for 1000 points with leaf 10", tr.Size())
	}
	// Median splits keep the depth logarithmic-ish: generous bound 4·log₂ n.
	if d := tr.Depth(); d > 40 {
		t.Errorf("Depth = %d, tree degenerated", d)
	}
	one := Build(dataset.FromPoints([][]float64{{1}}), 0)
	if one.Depth() != 1 || one.Size() != 1 {
		t.Errorf("singleton tree depth/size = %d/%d", one.Depth(), one.Size())
	}
}

func TestLeafSizeVariants(t *testing.T) {
	for _, leaf := range []int{1, 2, 7, 64, 10000} {
		fn := func(ds *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
			Build(ds, leaf).SelfJoin(opt, newSink)
		}
		jointest.CheckSelf(t, jointest.Workers(fn, 1), 8, 500+int64(leaf))
	}
}

// TestParallelMatchesSerial: four workers report the pair set of one.
func TestParallelMatchesSerial(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 3000, Dims: 5, Seed: 6, Dist: synth.GaussianClusters})
	tr := Build(ds, 0)
	opt := join.Options{Metric: vec.L2, Eps: 0.08}
	serial := pairs.NewSharded(true)
	tr.SelfJoin(opt, serial.Handle)
	opt.Workers = 4
	sh := pairs.NewSharded(true)
	tr.SelfJoin(opt, sh.Handle)
	if got, want := sh.Merged(), serial.Merged(); !pairs.Equal(got, want) {
		t.Errorf("parallel differs: %s", pairs.Diff(got, want))
	}
	// Tiny inputs.
	small := Build(dataset.FromPoints([][]float64{{0}, {0.01}, {9}}), 0)
	sh2 := pairs.NewSharded(true)
	small.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.1, Workers: 8}, sh2.Handle)
	if len(sh2.Merged()) != 1 {
		t.Errorf("tiny parallel join = %v", sh2.Merged())
	}
}
