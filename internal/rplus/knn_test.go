package rplus

import (
	"math/rand"
	"sort"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

func bruteKNN(ds *dataset.Dataset, q []float64, k int, m vec.Metric) []join.Neighbor {
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
		n := 1 + rng.Intn(600)
		d := 1 + rng.Intn(6)
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})
		tr := Build(ds, 2+rng.Intn(10), 1+rng.Intn(24))
		for qi := 0; qi < 8; qi++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.Float64()
			}
			k := 1 + rng.Intn(10)
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
	ds := synth.Generate(synth.Config{N: 25000, Dims: 3, Seed: 2, Dist: synth.Uniform})
	tr := Build(ds, 0, 0)
	var c stats.Counters
	tr.KNN([]float64{0.5, 0.5, 0.5}, 8, vec.L2, &c)
	if c.Snapshot().DistComps > int64(ds.Len())/20 {
		t.Errorf("KNN tested %d of %d points", c.Snapshot().DistComps, ds.Len())
	}
}

func TestKNNPanics(t *testing.T) {
	tr := Build(synth.Generate(synth.Config{N: 5, Dims: 2, Seed: 3, Dist: synth.Uniform}), 0, 0)
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
