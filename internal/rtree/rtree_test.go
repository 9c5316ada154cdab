package rtree

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
	jointest.CheckSelf(t, SelfJoin, 60, 701)
}

func TestJoinOracle(t *testing.T) {
	jointest.CheckJoin(t, Join, 60, 702)
}

func TestSelfJoinAdversarial(t *testing.T) {
	jointest.CheckSelfAdversarial(t, SelfJoin)
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(800)
		d := 1 + rng.Intn(10)
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})
		max := 4 + rng.Intn(60)
		tr := BulkLoad(ds, max)
		if tr.Len() != n {
			t.Fatalf("n=%d max=%d: Len = %d", n, max, tr.Len())
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d d=%d max=%d: %v", n, d, max, err)
		}
	}
}

func TestJoinTreesDifferentHeights(t *testing.T) {
	// 2000 vs 10 points: trees of very different heights must still join
	// correctly through the mixed-level traversal.
	a := synth.Generate(synth.Config{N: 2000, Dims: 3, Seed: 6, Dist: synth.Uniform})
	b := synth.Generate(synth.Config{N: 10, Dims: 3, Seed: 7, Dist: synth.Uniform})
	opt := join.Options{Metric: vec.L2, Eps: 0.1}
	got := &pairs.Collector{}
	JoinTrees(BulkLoad(a, 8), BulkLoad(b, 8), opt, got)
	want := &pairs.Collector{}
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if vec.Within(vec.L2, a.Point(i), b.Point(j), opt.Threshold()) {
				want.Emit(i, j)
			}
		}
	}
	if !pairs.Equal(got.Sorted(), want.Sorted()) {
		t.Errorf("mixed-height join wrong: %s", pairs.Diff(got.Pairs, want.Pairs))
	}
}

func TestHeightAndSizeGrow(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 5000, Dims: 2, Seed: 8, Dist: synth.Uniform})
	tr := BulkLoad(ds, 16)
	if tr.height < 3 {
		t.Errorf("height = %d, want ≥ 3 for 5000 points with fan-out 16", tr.height)
	}
	if tr.Size() < 5000/16 {
		t.Errorf("Size = %d, too few nodes", tr.Size())
	}
}

func TestEmptyTree(t *testing.T) {
	ds := dataset.New(2, 0)
	tr := BulkLoad(ds, 0)
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree reported bounds")
	}
	if tr.Len() != 0 || tr.Size() != 1 {
		t.Errorf("empty tree: Len %d, Size %d; want 0 and 1", tr.Len(), tr.Size())
	}
	var sink pairs.Counter
	JoinTrees(tr, BulkLoad(synth.Generate(synth.Config{N: 50, Dims: 2, Seed: 10, Dist: synth.Uniform}), 0),
		join.Options{Metric: vec.L2, Eps: 1}, &sink)
	if sink.N() != 0 {
		t.Error("empty tree joined something")
	}
}

// TestJoinPrunes: synchronized traversal on spread data must test far fewer
// candidates than quadratic in low dimensions.
func TestJoinPrunes(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 4000, Dims: 3, Seed: 9, Dist: synth.Uniform})
	var c stats.Counters
	var sink pairs.Counter
	SelfJoin(ds, join.Options{Metric: vec.L2, Eps: 0.03, Counters: &c}, &sink)
	quad := int64(ds.Len()) * int64(ds.Len()-1) / 2
	if got := c.Snapshot().Candidates; got*4 > quad {
		t.Errorf("candidates %d not well below quadratic %d", got, quad)
	}
}

func TestEvenChunks(t *testing.T) {
	for _, tc := range []struct {
		n, max int
	}{{1, 32}, {32, 32}, {33, 32}, {100, 32}, {5, 4}, {1000, 7}} {
		chunks := evenChunks(tc.n, tc.max)
		total := 0
		prevEnd := 0
		for _, c := range chunks {
			if c.start != prevEnd {
				t.Fatalf("n=%d max=%d: gap at %d", tc.n, tc.max, c.start)
			}
			size := c.end - c.start
			if size > tc.max || size < 1 {
				t.Fatalf("n=%d max=%d: chunk size %d", tc.n, tc.max, size)
			}
			if len(chunks) > 1 && size < tc.max/2 {
				t.Fatalf("n=%d max=%d: chunk below min fill (%d)", tc.n, tc.max, size)
			}
			total += size
			prevEnd = c.end
		}
		if total != tc.n {
			t.Fatalf("n=%d max=%d: chunks cover %d", tc.n, tc.max, total)
		}
	}
}
