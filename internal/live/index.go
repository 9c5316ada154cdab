package live

import (
	"simjoin/internal/core"
	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

// Index is the long-lived incremental ε-kdB tree behind one tracked
// dataset: a tree built for the largest ε any standing query needs, over
// the serving layer's own dataset snapshot. Appends route new points down
// the existing stripe grid (core.Tree.Insert) instead of rebuilding; only
// a *raised* ε forces a one-time rebuild, because the stripe grid is sized
// to the ε it was built for.
//
// The index holds no copy of the points. It reads them from the snapshot
// it was last handed (Adopt), which the serving layer never changes, so
// tracking a dataset costs the tree alone (docs/LIVE.md).
type Index struct {
	ds   *dataset.Dataset // the points; its first n are indexed
	n    int
	eps  float64
	tree *core.Tree
}

// fallbackEps sizes the stripe grid when a dataset is tracked before
// any standing query names its ε (the hint is 0). The first Subscribe
// raises it through EnsureEps if the query needs more.
const fallbackEps = 0.1

// newIndex builds the stripe grid over seed for eps. An empty seed
// gets a unit frame so the first insert has a grid to route through
// (points outside any frame clamp into the edge stripes — a selectivity
// cost, never a correctness one). A non-positive eps falls back to
// fallbackEps: the tree needs some stripe width, and queries only ever
// shrink relative to it or rebuild through EnsureEps.
func newIndex(seed *dataset.Dataset, eps float64) *Index {
	if eps <= 0 {
		eps = fallbackEps
	}
	x := &Index{ds: seed, n: seed.Len(), eps: eps}
	x.rebuild()
	return x
}

// rebuild constructs the tree from scratch at the current ε, over every
// point of ds: callers rebuild only when all of them are indexed.
func (x *Index) rebuild() {
	box := unitBox(x.ds.Dims())
	if x.ds.Len() > 0 {
		box = x.ds.Bounds()
	}
	x.tree = core.BuildWithBox(x.ds, x.eps, box, core.Config{})
}

// unitBox is the fallback frame for an empty dataset.
func unitBox(dims int) vec.Box {
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := range hi {
		hi[d] = 1
	}
	return vec.NewBox(lo, hi)
}

// EnsureEps guarantees the index answers queries up to eps, rebuilding
// once if the standing-query ceiling rose. Lowering never rebuilds.
func (x *Index) EnsureEps(eps float64) {
	if eps <= x.eps {
		return
	}
	x.eps = eps
	x.rebuild()
}

// Adopt re-points the index at ds, a grown snapshot of its dataset,
// without indexing the new points: Next indexes them one at a time, in
// order, so each can first be probed against everything before it.
func (x *Index) Adopt(ds *dataset.Dataset) {
	x.ds = ds
	x.tree.Rebase(ds)
}

// Next indexes the first point of the adopted snapshot not yet indexed.
func (x *Index) Next() {
	x.tree.Insert(x.n)
	x.n++
}

// Neighbors visits every indexed point within radius of q under metric.
// radius must not exceed the index ε (EnsureEps is the caller's job).
func (x *Index) Neighbors(q []float64, metric vec.Metric, radius float64, visit func(i int)) {
	x.tree.RangeQuery(q, metric, radius, nil, visit)
}

// Len returns the number of indexed points.
func (x *Index) Len() int { return x.n }

// Dims returns the dataset's dimensionality.
func (x *Index) Dims() int { return x.ds.Dims() }

// Point returns point i (aliased, treat as read-only).
func (x *Index) Point(i int) []float64 { return x.ds.Point(i) }

// Eps returns the largest query radius the index currently supports.
func (x *Index) Eps() float64 { return x.eps }
