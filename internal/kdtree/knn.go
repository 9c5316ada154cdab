package kdtree

import (
	"fmt"

	"simjoin/internal/join"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// KNN returns the k nearest neighbors of q in ascending distance order
// (ties broken by index).
func (t *Tree) KNN(q []float64, k int, metric vec.Metric, counters *stats.Counters) []join.Neighbor {
	if k < 1 {
		panic(fmt.Sprintf("kdtree: KNN with k=%d", k))
	}
	// k comes off the wire: never reserve more than the tree can answer.
	best := join.NewMaxHeap(min(k, t.ds.Len()))
	t.Nearest(q, metric, best, counters)
	return best.Sorted()
}

// Nearest is the search behind KNN, filling a caller's heap so the tree's
// candidates can share it with points the tree does not hold. It descends
// the closer child first and prunes subtrees whose box is farther than
// the heap's current bound; a subtree at exactly the bound is still
// visited, so a tie at the k-th distance resolves by index, not by visit
// order.
func (t *Tree) Nearest(q []float64, metric vec.Metric, best *join.MaxHeap, counters *stats.Counters) {
	if len(q) != t.ds.Dims() {
		panic(fmt.Sprintf("kdtree: query of dimension %d against %d-dim tree", len(q), t.ds.Dims()))
	}
	var visits, comps int64
	var rec func(n *node)
	rec = func(n *node) {
		visits++
		if n.dim < 0 {
			for _, i := range n.pts {
				comps++
				d := vec.Dist(metric, q, t.ds.Point(int(i)))
				best.Push(join.Neighbor{Index: int(i), Dist: d})
			}
			return
		}
		first, second := n.left, n.right
		if q[n.dim] >= n.val {
			first, second = second, first
		}
		if b, ok := best.Bound(); !ok || first.box.MinDistPoint(metric, q) <= b {
			rec(first)
		}
		if b, ok := best.Bound(); !ok || second.box.MinDistPoint(metric, q) <= b {
			rec(second)
		}
	}
	rec(t.root)
	if counters != nil {
		counters.AddNodeVisits(visits)
		counters.AddDistComps(comps)
		counters.AddCandidates(comps)
	}
}
