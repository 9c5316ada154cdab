package rplus

import (
	"fmt"

	"simjoin/internal/join"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// KNN returns the k nearest neighbors of q in ascending distance order.
// Children are visited nearest-region first (regions are disjoint, so the
// ordering is meaningful) and pruned against the current k-th best.
func (t *Tree) KNN(q []float64, k int, metric vec.Metric, counters *stats.Counters) []join.Neighbor {
	if len(q) != t.ds.Dims() {
		panic(fmt.Sprintf("rplus: query of dimension %d against %d-dim tree", len(q), t.ds.Dims()))
	}
	if k < 1 {
		panic(fmt.Sprintf("rplus: KNN with k=%d", k))
	}
	// k comes off the wire: never reserve more than the tree can answer.
	best := join.NewMaxHeap(min(k, t.ds.Len()))
	var visits, comps int64
	var rec func(n *node)
	rec = func(n *node) {
		visits++
		if n.children == nil {
			for _, i := range n.pts {
				comps++
				best.Push(join.Neighbor{Index: int(i), Dist: vec.Dist(metric, q, t.ds.Point(int(i)))})
			}
			return
		}
		// Order children by region distance; the first is often enough to
		// tighten the bound so the rest prune.
		type cand struct {
			d float64
			c *node
		}
		order := make([]cand, 0, len(n.children))
		for _, c := range n.children {
			order = append(order, cand{d: c.box.MinDistPoint(metric, q), c: c})
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j].d < order[j-1].d; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, oc := range order {
			if b, ok := best.Bound(); ok && oc.d > b {
				break // sorted: no later child can qualify
			}
			rec(oc.c)
		}
	}
	rec(t.root)
	if counters != nil {
		counters.AddNodeVisits(visits)
		counters.AddDistComps(comps)
		counters.AddCandidates(comps)
	}
	return best.Sorted()
}
