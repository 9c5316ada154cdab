// Package sweep implements the sort-and-plane-sweep similarity join: points
// are sorted on dimension 0 and only pairs whose dim-0 gap is at most ε are
// tested. For every Minkowski metric the per-dimension gap lower-bounds the
// distance, so the strip filter never loses a result. This is the classic
// one-dimensional filtering baseline: cheap to build (one sort), effective
// in low dimensions, and increasingly useless as dimensionality grows — one
// projected dimension prunes less and less of the volume.
package sweep

import (
	"sort"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// sortedIndex returns the point indexes of ds ordered by coordinate dim.
func sortedIndex(ds *dataset.Dataset, dim int) []int32 {
	idx := make([]int32, ds.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	data, dims := ds.Flat(), ds.Dims()
	sort.Slice(idx, func(a, b int) bool {
		return data[int(idx[a])*dims+dim] < data[int(idx[b])*dims+dim]
	})
	return idx
}

// SelfJoin reports every unordered pair within ε once, in either endpoint
// order.
func SelfJoin(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	c := opt.Stats()
	t := opt.Threshold()
	build := time.Now()
	idx := sortedIndex(ds, 0)
	opt.Timing().AddBuild(time.Since(build))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	f := ds.FlatView()
	cand, res := vec.SelfSweepFlat(opt.Metric, f, idx, 0, opt.Eps, t, func(i, j int32) {
		sink.Emit(int(i), int(j))
	})
	c.AddCandidates(cand)
	c.AddDistComps(cand)
	c.AddResults(res)
}

// Join reports every (a-index, b-index) pair within ε by merging the two
// sorted orders: for each a-point, only the b-window whose dim-0 values lie
// in [x−ε, x+ε] is tested.
func Join(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	c := opt.Stats()
	t := opt.Threshold()
	build := time.Now()
	ia := sortedIndex(a, 0)
	ib := sortedIndex(b, 0)
	opt.Timing().AddBuild(time.Since(build))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	fa := a.FlatView()
	fb := b.FlatView()
	cand, res := vec.CrossSweepFlat(opt.Metric, fa, fb, ia, ib, 0, opt.Eps, t, func(ai, bi int32) {
		sink.Emit(int(ai), int(bi))
	})
	c.AddCandidates(cand)
	c.AddDistComps(cand)
	c.AddResults(res)
}
