package simjoin

import (
	"math"
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
