package kdtree

import (
	"math/rand"
	"sort"
	"testing"

	"simjoin/internal/join"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// bruteKNN is the oracle: full sort of all distances.
func bruteKNN(ds interface {
	Len() int
	Point(int) []float64
}, q []float64, k int, m vec.Metric) []join.Neighbor {
	all := make([]join.Neighbor, ds.Len())
	for i := range all {
		all[i] = join.Neighbor{Index: i, Dist: vec.Dist(m, q, ds.Point(i))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		d := 1 + rng.Intn(6)
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})
		tr := Build(ds, 1+rng.Intn(16))
		for qi := 0; qi < 10; qi++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.Float64()
			}
			k := 1 + rng.Intn(12)
			if qi == 0 {
				k = 1 << 40 // a hostile wire value: must answer all n, not reserve k
			}
			for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
				got := tr.KNN(q, k, m, nil)
				want := bruteKNN(ds, q, k, m)
				if len(got) != len(want) {
					t.Fatalf("len %d, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i].Dist != want[i].Dist {
						t.Fatalf("%v: neighbor %d dist %g, want %g", m, i, got[i].Dist, want[i].Dist)
					}
				}
			}
		}
	}
}

func TestKNNPrunes(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 20000, Dims: 3, Seed: 2, Dist: synth.Uniform})
	tr := Build(ds, 16)
	var c stats.Counters
	got := tr.KNN([]float64{0.5, 0.5, 0.5}, 5, vec.L2, &c)
	if len(got) != 5 {
		t.Fatalf("got %d neighbors", len(got))
	}
	if c.Snapshot().DistComps > int64(ds.Len())/20 {
		t.Errorf("KNN tested %d of %d points; pruning ineffective", c.Snapshot().DistComps, ds.Len())
	}
}

func TestKNNPanics(t *testing.T) {
	tr := Build(synth.Generate(synth.Config{N: 10, Dims: 2, Seed: 3, Dist: synth.Uniform}), 0)
	for name, fn := range map[string]func(){
		"k=0":          func() { tr.KNN([]float64{0, 0}, 0, vec.L2, nil) },
		"dim mismatch": func() { tr.KNN([]float64{0}, 1, vec.L2, nil) },
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

func TestKNNKLargerThanN(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 4, Dims: 2, Seed: 4, Dist: synth.Uniform})
	tr := Build(ds, 0)
	got := tr.KNN([]float64{0.5, 0.5}, 10, vec.L2, nil)
	if len(got) != 4 {
		t.Errorf("k>n returned %d neighbors, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Error("neighbors not distance-ordered")
		}
	}
}
