package rtree

import (
	"container/heap"
	"fmt"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// queueItem is one entry of the best-first search frontier: either a node
// (child != nil) or a point, ordered by minimum possible distance.
type queueItem struct {
	dist  float64
	child *node
	idx   int32
}

type frontier []queueItem

func (f frontier) Len() int           { return len(f) }
func (f frontier) Less(i, j int) bool { return f[i].dist < f[j].dist }
func (f frontier) Swap(i, j int)      { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)        { *f = append(*f, x.(queueItem)) }
func (f *frontier) Pop() any          { old := *f; n := len(old); x := old[n-1]; *f = old[:n-1]; return x }

// KNN returns the k nearest neighbors of q in ascending distance order,
// using Hjaltason–Samet best-first traversal: a priority queue over nodes
// and points keyed by minimum possible distance, stopping once k points
// have surfaced (everything still queued is provably farther).
func (t *Tree) KNN(q []float64, k int, metric vec.Metric, counters *stats.Counters) []join.Neighbor {
	if len(q) != t.ds.Dims() {
		panic(fmt.Sprintf("rtree: query of dimension %d against %d-dim tree", len(q), t.ds.Dims()))
	}
	if k < 1 {
		panic(fmt.Sprintf("rtree: KNN with k=%d", k))
	}
	// k comes off the wire: never reserve more than the tree can answer.
	out := make([]join.Neighbor, 0, min(k, t.ds.Len()))
	if len(t.root.entries) == 0 {
		return out
	}
	var visits, comps int64
	f := &frontier{{dist: 0, child: t.root}}
	for f.Len() > 0 && len(out) < k {
		item := heap.Pop(f).(queueItem)
		if item.child == nil {
			out = append(out, join.Neighbor{Index: int(item.idx), Dist: item.dist})
			continue
		}
		visits++
		n := item.child
		for _, e := range n.entries {
			if n.leaf {
				comps++
				d := vec.Dist(metric, q, t.ds.Point(int(e.idx)))
				heap.Push(f, queueItem{dist: d, idx: e.idx})
				continue
			}
			heap.Push(f, queueItem{dist: e.box.MinDistPoint(metric, q), child: e.child})
		}
	}
	if counters != nil {
		counters.AddNodeVisits(visits)
		counters.AddDistComps(comps)
		counters.AddCandidates(comps)
	}
	// Best-first pops points in exact distance order; normalize equal-
	// distance runs by index for deterministic output.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dist == out[j-1].Dist && out[j].Index < out[j-1].Index; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// KNNJoin reports, for every point of a, its k nearest neighbors in b
// (ascending distance), using a bulk-loaded tree over b and workers
// parallel queries. The result is indexed by a's point order.
func KNNJoin(a, b *dataset.Dataset, k, workers int, metric vec.Metric, counters *stats.Counters) [][]join.Neighbor {
	if a.Dims() != b.Dims() {
		panic(fmt.Sprintf("rtree: KNN join over %d-dim and %d-dim sets", a.Dims(), b.Dims()))
	}
	if b.Len() == 0 {
		panic("rtree: KNN join against an empty set")
	}
	t := BulkLoad(b, 0)
	out := make([][]join.Neighbor, a.Len())
	workers = min(max(workers, 1), a.Len())
	join.Spread(workers, func(w int) {
		for i := w; i < a.Len(); i += workers {
			out[i] = t.KNN(a.Point(i), k, metric, counters)
		}
	})
	return out
}
