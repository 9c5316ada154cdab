package simjoin

import (
	"fmt"

	"simjoin/internal/core"
	"simjoin/internal/obsv"
	"simjoin/internal/stats"
)

// Index is a reusable ε-kdB tree over one dataset: build once at the
// largest threshold of interest, then run any number of self-joins and
// range queries at that ε or below, and keep the index current with
// Insert/Delete as the dataset evolves. The paper's core structure,
// exposed for callers whose workload is not a single one-shot join.
type Index struct {
	ds  *Dataset
	eps float64
	t   *core.Tree
}

// NewIndex builds an index over ds for thresholds up to eps. Options are
// supplied per query.
func NewIndex(ds *Dataset, eps float64) (*Index, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("simjoin: index eps must be positive, got %g", eps)
	}
	// The index outlives any one join and answers under every metric, so it
	// is keyed on raw coordinates (BuildWithBox) whatever the data looks
	// like; an empty dataset has no frame yet and no keys to choose.
	in := ds.internal()
	if in.Len() == 0 {
		return &Index{ds: ds, eps: eps, t: core.Build(in, eps, core.Config{})}, nil
	}
	return &Index{ds: ds, eps: eps, t: core.BuildWithBox(in, eps, in.Bounds(), core.Config{})}, nil
}

// Eps returns the largest threshold the index supports.
func (x *Index) Eps() float64 { return x.eps }

// Len returns the number of points in the underlying dataset.
func (x *Index) Len() int { return x.ds.Len() }

// SelfJoin reports every unordered pair within opt.Eps (which must not
// exceed the index's ε) exactly once with I < J, its stripes spread over
// opt.Workers goroutines.
func (x *Index) SelfJoin(opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Eps > x.eps {
		return nil, fmt.Errorf("simjoin: query eps %g exceeds index eps %g; rebuild with a larger threshold", opt.Eps, x.eps)
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	watch := stats.Start()
	return treeRunners(x.t, iopt).result(true, opt, nil, indexPlan, iopt, watch), nil
}

// indexPlan is the plan of every Index join: the index is the ε-kdB tree,
// so nothing is estimated or chosen.
var indexPlan = planned{algo: AlgorithmEKDB, est: -1}

// SelfJoinEach streams every qualifying unordered pair (delivered with
// i < j) to fn as it is found, without materializing a pair slice — the
// streaming counterpart of SelfJoin, with the same callback contract as
// the package-level SelfJoinEach: single-goroutine delivery in
// unspecified order. opt.Workers > 1 spreads the stripes over that many
// goroutines and funnels their pairs to fn.
func (x *Index) SelfJoinEach(opt Options, fn func(i, j int)) (Stats, error) {
	if err := opt.validate(); err != nil {
		return Stats{}, err
	}
	if opt.Eps > x.eps {
		return Stats{}, fmt.Errorf("simjoin: query eps %g exceeds index eps %g; rebuild with a larger threshold", opt.Eps, x.eps)
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	watch := stats.Start()
	var n int64
	r := treeRunners(x.t, iopt)
	r.each(iopt.Workers, func(i, j int) {
		if j < i {
			i, j = j, i
		}
		n++
		fn(i, j)
	})
	return r.finish(opt, nil, indexPlan, iopt, n, watch), nil
}

// Range returns the indexes of every point within radius (≤ the index's ε)
// of q under the given metric.
func (x *Index) Range(q []float64, metric Metric, radius float64) ([]int, error) {
	if len(q) != x.ds.Dims() {
		return nil, fmt.Errorf("simjoin: query of dimension %d against %d-dim index", len(q), x.ds.Dims())
	}
	if !(radius > 0) || radius > x.eps {
		return nil, fmt.Errorf("simjoin: query radius %g outside (0, %g]", radius, x.eps)
	}
	var out []int
	x.t.RangeQuery(q, metric.internal(), radius, nil, func(i int) { out = append(out, i) })
	return out, nil
}

// Insert appends point p to the dataset and indexes it, returning its
// index.
func (x *Index) Insert(p []float64) (int, error) {
	if len(p) != x.ds.Dims() {
		return 0, fmt.Errorf("simjoin: inserting %d-dim point into %d-dim index", len(p), x.ds.Dims())
	}
	x.ds.Append(p)
	i := x.ds.Len() - 1
	x.t.Insert(i)
	return i, nil
}

// Delete removes point i from the index (its slot in the dataset remains,
// so other indexes stay stable). It reports whether the point was indexed.
func (x *Index) Delete(i int) bool { return x.t.Delete(i) }
