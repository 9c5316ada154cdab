package simjoin

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"simjoin/internal/vec"
)

// TestNeighborIndexSeesAppends: an index answers over every point its
// dataset holds when the query runs, not just those it was built over.
func TestNeighborIndexSeesAppends(t *testing.T) {
	ds := FromPoints([][]float64{{0, 0}, {1, 1}})
	idx := NewNeighborIndex(ds)
	ds.Append([]float64{0.01, 0})
	got := idx.Range([]float64{0, 0}, L2, 0.1)
	sort.Ints(got)
	if !slices.Equal(got, []int{0, 2}) {
		t.Errorf("Range after Append = %v, want [0 2]", got)
	}
	if nn := idx.KNN([]float64{0, 0}, 3, L2); len(nn) != 3 || nn[1].Index != 2 {
		t.Errorf("KNN after Append = %v, want 3 neighbors with index 2 second", nn)
	}
	if idx.Tail() != 1 {
		t.Errorf("Tail = %d, want 1", idx.Tail())
	}
	// An index over an empty dataset has no tree and only scans.
	empty := NewDataset(2)
	scan := NewNeighborIndex(empty)
	if got := scan.KNN([]float64{0, 0}, 1, L2); len(got) != 0 {
		t.Errorf("KNN on an empty dataset = %v", got)
	}
	empty.Append([]float64{0.5, 0})
	if got := scan.Range([]float64{0, 0}, L1, 0.5); !slices.Equal(got, []int{0}) {
		t.Errorf("Range over a tree-less index = %v, want [0]", got)
	}
}

// bruteNeighbors is the oracle: every point within eps under the same
// predicate the kernels run, and the k smallest by (distance, index).
func bruteNeighbors(ds *Dataset, q []float64, m vec.Metric, eps float64, k int) ([]int, []Neighbor) {
	var in []int
	all := make([]Neighbor, ds.Len())
	for i := range all {
		p := ds.Point(i)
		if vec.Within(m, q, p, vec.Threshold(m, eps)) {
			in = append(in, i)
		}
		all[i] = Neighbor{Index: i, Dist: vec.Dist(m, q, p)}
	}
	sort.Slice(all, func(a, b int) bool {
		return all[a].Dist < all[b].Dist || (all[a].Dist == all[b].Dist && all[a].Index < all[b].Index)
	})
	return in, all[:min(k, len(all))]
}

// TestNeighborIndexGrowOracle drives random appends (batches of 1 to 300
// points, a third of them copies of earlier points so distances tie
// across the prefix/tail boundary) through the two ways a dataset grows —
// in place with Append, and as append-only snapshots the index is
// Extended over — and holds every Range and KNN answer to brute force,
// under each metric, at radius 0, a typical radius and one past the
// data's diameter, with k = 1 and k = n + 5. Both indexes are rebuilt
// whenever the tail passes the serving layer's rule, max(1 024, n/8).
func TestNeighborIndexGrowOracle(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(26))
	point := func(have *Dataset) []float64 {
		if have.Len() > 0 && rng.Intn(3) == 0 {
			return append([]float64(nil), have.Point(rng.Intn(have.Len()))...)
		}
		p := make([]float64, dims)
		for k := range p {
			p[k] = rng.Float64()
		}
		return p
	}
	inPlace := NewDataset(dims)
	for i := 0; i < 40; i++ {
		inPlace.Append(point(inPlace))
	}
	snap := WrapDataset(inPlace.internal().Clone())
	growing, extended := NewNeighborIndex(inPlace), NewNeighborIndex(snap)

	rebuilds := 0
	for step := 0; rebuilds < 3 || step < 20; step++ {
		batch := 1 + rng.Intn(300)
		flat := make([]float64, 0, batch*dims)
		for i := 0; i < batch; i++ {
			p := point(inPlace)
			inPlace.Append(p)
			flat = append(flat, p...)
		}
		snap = WrapDataset(snap.internal().Grow(flat))
		extended = extended.Extend(snap)
		if growing.Tail() != extended.Tail() {
			t.Fatalf("step %d: tails %d and %d differ", step, growing.Tail(), extended.Tail())
		}

		n := inPlace.Len()
		queries := [][]float64{point(inPlace), inPlace.Point(n - 1), inPlace.Point(rng.Intn(n))}
		for _, m := range []Metric{L2, L1, Linf} {
			for _, q := range queries {
				for _, eps := range []float64{0, 0.15, 10} {
					want, _ := bruteNeighbors(inPlace, q, m.internal(), eps, 0)
					for name, x := range map[string]*NeighborIndex{"in place": growing, "extended": extended} {
						got := x.Range(q, m, eps)
						sort.Ints(got)
						if !slices.Equal(got, want) {
							t.Fatalf("step %d, %s, %v, eps %g: Range has %d points, brute %d", step, name, m, eps, len(got), len(want))
						}
					}
				}
				for _, k := range []int{1, n + 5} {
					_, want := bruteNeighbors(inPlace, q, m.internal(), 0, k)
					for name, x := range map[string]*NeighborIndex{"in place": growing, "extended": extended} {
						if got := x.KNN(q, k, m); !slices.Equal(got, want) {
							t.Fatalf("step %d, %s, %v, k %d: KNN differs from brute (first %v, want %v)", step, name, m, k, got[0], want[0])
						}
					}
				}
			}
		}
		if growing.Tail() > max(1024, n/8) {
			growing, extended = NewNeighborIndex(inPlace), NewNeighborIndex(snap)
			rebuilds++
		}
	}
}
