package simjoin

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNeighborIndexKNN(t *testing.T) {
	ds, _ := Synthetic("uniform", 500, 4, 9)
	idx := NewNeighborIndex(ds)
	q := []float64{0.5, 0.5, 0.5, 0.5}
	// Oracle: sort all distances.
	dists := make([]float64, ds.Len())
	for i := range dists {
		var s float64
		for k, v := range ds.Point(i) {
			d := v - q[k]
			s += d * d
		}
		dists[i] = math.Sqrt(s)
	}
	sort.Float64s(dists)
	// 1<<40 is a hostile wire value: every point comes back, and nothing
	// of size k is reserved.
	for _, k := range []int{7, 1 << 40} {
		got := idx.KNN(q, k, L2)
		if len(got) != min(k, ds.Len()) {
			t.Fatalf("k=%d: KNN returned %d neighbors", k, len(got))
		}
		for i, n := range got {
			if math.Abs(n.Dist-dists[i]) > 1e-12 {
				t.Errorf("k=%d: neighbor %d dist %g, want %g", k, i, n.Dist, dists[i])
			}
			if i > 0 && n.Dist < got[i-1].Dist {
				t.Errorf("k=%d: KNN output not distance-ordered", k)
			}
		}
	}
}

func TestKNNJoinPublic(t *testing.T) {
	a, _ := Synthetic("uniform", 60, 3, 10)
	b, _ := Synthetic("clustered", 300, 3, 11)
	for _, k := range []int{4, 1 << 40} {
		rows, err := KNNJoin(a, b, k, 2, L1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != a.Len() {
			t.Fatalf("%d rows, want %d", len(rows), a.Len())
		}
		for i, row := range rows {
			if len(row) != min(k, b.Len()) {
				t.Fatalf("k=%d row %d: %d neighbors", k, i, len(row))
			}
			// Verify the first neighbor against a scan.
			best, bestD := -1, math.Inf(1)
			for j := 0; j < b.Len(); j++ {
				var s float64
				for d, v := range b.Point(j) {
					s += math.Abs(v - a.Point(i)[d])
				}
				if s < bestD {
					best, bestD = j, s
				}
			}
			if math.Abs(row[0].Dist-bestD) > 1e-12 {
				t.Fatalf("row %d: nearest dist %g, want %g (index %d)", i, row[0].Dist, bestD, best)
			}
		}
	}
}

func TestKNNJoinErrors(t *testing.T) {
	a, _ := Synthetic("uniform", 5, 2, 1)
	b3, _ := Synthetic("uniform", 5, 3, 1)
	if _, err := KNNJoin(a, b3, 1, 1, L2); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, err := KNNJoin(a, NewDataset(2), 1, 1, L2); err == nil {
		t.Error("empty b accepted")
	}
	if _, err := KNNJoin(a, a, 0, 1, L2); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestKNNJoinMatchesNeighborIndex holds every KNNJoin row to
// NeighborIndex.KNN for the same point, indexes included: one search, so
// the same neighbours on tied distances. The duplicate-heavy set puts a
// third of b at one location, where the k-th distance ties hundreds of
// points and only the tie rule picks the answer.
func TestKNNJoinMatchesNeighborIndex(t *testing.T) {
	dup := NewDataset(2)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			dup.Append([]float64{0.5, 0.5})
		} else {
			dup.Append([]float64{rng.Float64(), rng.Float64()})
		}
	}
	dupQueries := NewDataset(2)
	dupQueries.Append([]float64{0.5, 0.5})
	for i := 0; i < 30; i++ {
		dupQueries.Append(dup.Point(rng.Intn(dup.Len())))
	}
	clustered, _ := Synthetic("clustered", 800, 4, 32)
	clusteredQueries, _ := Synthetic("clustered", 30, 4, 33)
	for _, set := range []struct {
		name string
		a, b *Dataset
	}{{"duplicates", dupQueries, dup}, {"clustered", clusteredQueries, clustered}} {
		x := NewNeighborIndex(set.b)
		for _, m := range []Metric{L1, L2, Linf} {
			for _, k := range []int{1, 3, 10, set.b.Len() + 5} {
				want := make([][]Neighbor, set.a.Len())
				for i := range want {
					want[i] = x.KNN(set.a.Point(i), k, m)
				}
				for _, workers := range []int{1, 4} {
					rows, err := KNNJoin(set.a, set.b, k, workers, m)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) != set.a.Len() {
						t.Fatalf("%s %v k=%d workers=%d: %d rows, want %d", set.name, m, k, workers, len(rows), set.a.Len())
					}
					for i, row := range rows {
						if !reflect.DeepEqual(row, want[i]) {
							t.Fatalf("%s %v k=%d workers=%d row %d:\n got %v\nwant %v", set.name, m, k, workers, i, headNeighbors(row), headNeighbors(want[i]))
						}
					}
				}
			}
		}
	}
}

// headNeighbors trims a neighbour list for a failure message.
func headNeighbors(ns []Neighbor) []Neighbor { return ns[:min(len(ns), 5)] }
