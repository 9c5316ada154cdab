package rtree

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
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(600)
		d := 1 + rng.Intn(6)
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: rng.Int63(), Dist: synth.AllDistributions()[rng.Intn(4)]})
		trees := []*Tree{BulkLoad(ds, 8)}
		dyn := New(ds, 8)
		for i := 0; i < n; i++ {
			dyn.Insert(i)
		}
		trees = append(trees, dyn)
		for _, tr := range trees {
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
}

func TestKNNEmptyAndPanics(t *testing.T) {
	empty := BulkLoad(dataset.New(2, 0), 0)
	if got := empty.KNN([]float64{0, 0}, 3, vec.L2, nil); len(got) != 0 {
		t.Errorf("empty tree returned %d neighbors", len(got))
	}
	tr := BulkLoad(synth.Generate(synth.Config{N: 5, Dims: 2, Seed: 1, Dist: synth.Uniform}), 0)
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

func TestKNNBestFirstEfficiency(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 30000, Dims: 3, Seed: 2, Dist: synth.Uniform})
	tr := BulkLoad(ds, 32)
	var c stats.Counters
	tr.KNN([]float64{0.5, 0.5, 0.5}, 10, vec.L2, &c)
	// Best-first should touch a tiny fraction of the points.
	if c.Snapshot().DistComps > int64(ds.Len())/20 {
		t.Errorf("KNN tested %d of %d points", c.Snapshot().DistComps, ds.Len())
	}
}

func TestKNNJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := synth.Generate(synth.Config{N: 150, Dims: 4, Seed: 4, Dist: synth.Uniform})
	b := synth.Generate(synth.Config{N: 400, Dims: 4, Seed: 5, Dist: synth.GaussianClusters})
	_ = rng
	for _, workers := range []int{1, 4} {
		got := KNNJoin(a, b, 3, workers, vec.L2, nil)
		if len(got) != a.Len() {
			t.Fatalf("workers=%d: %d result rows", workers, len(got))
		}
		for i := 0; i < a.Len(); i++ {
			want := bruteKNN(b, a.Point(i), 3, vec.L2)
			if len(got[i]) != 3 {
				t.Fatalf("workers=%d row %d: %d neighbors", workers, i, len(got[i]))
			}
			for j := range want {
				if got[i][j].Dist != want[j].Dist {
					t.Fatalf("workers=%d row %d neighbor %d: %g vs %g", workers, i, j, got[i][j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestKNNJoinPanics(t *testing.T) {
	a := synth.Generate(synth.Config{N: 3, Dims: 2, Seed: 6, Dist: synth.Uniform})
	for name, fn := range map[string]func(){
		"dims differ": func() {
			KNNJoin(a, synth.Generate(synth.Config{N: 3, Dims: 3, Seed: 7, Dist: synth.Uniform}), 1, 1, vec.L2, nil)
		},
		"empty b": func() { KNNJoin(a, dataset.New(2, 0), 1, 1, vec.L2, nil) },
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
