// Package brute implements the nested-loop similarity join. It is the
// correctness oracle every other algorithm is tested against, the small-N
// baseline of the evaluation (where its lack of build cost wins), and the
// refinement kernel other algorithms reuse for leaf-level work.
package brute

import (
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// SelfJoin reports every unordered pair {i, j}, i < j, of points in ds with
// dist ≤ opt.Eps, emitting each exactly once with i < j.
func SelfJoin(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	c := opt.Stats()
	t := opt.Threshold()
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	n := ds.Len()
	f := ds.FlatView()
	var cand, res int64
	var i int32
	emit := func(j int32) { sink.Emit(int(i), int(j)) }
	for i = 0; int(i) < n; i++ {
		pc, pr := vec.ProbeRangeFlat(opt.Metric, f, i, f, int(i)+1, n, t, emit)
		cand += pc
		res += pr
	}
	c.AddCandidates(cand)
	c.AddDistComps(cand)
	c.AddResults(res)
}

// Join reports every pair (i, j) with dist(a[i], b[j]) ≤ opt.Eps.
func Join(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	c := opt.Stats()
	t := opt.Threshold()
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	na, nb := a.Len(), b.Len()
	fa := a.FlatView()
	fb := b.FlatView()
	var cand, res int64
	var i int32
	emit := func(j int32) { sink.Emit(int(i), int(j)) }
	for i = 0; int(i) < na; i++ {
		pc, pr := vec.ProbeRangeFlat(opt.Metric, fa, i, fb, 0, nb, t, emit)
		cand += pc
		res += pr
	}
	c.AddCandidates(cand)
	c.AddDistComps(cand)
	c.AddResults(res)
}
