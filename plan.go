package simjoin

import (
	"simjoin/internal/core"
	"simjoin/internal/dataset"
	"simjoin/internal/sketch"
)

// Plan is the planner's pre-run report for a prospective join: what
// AlgorithmAuto would run and the result size it predicts. PlanSelfJoin
// and PlanJoin expose it so serving layers can price a query — for
// admission control, capacity answers, or predicted-vs-actual
// monitoring — without running the join.
type Plan struct {
	// Algorithm is what AlgorithmAuto would pick for this workload.
	Algorithm Algorithm
	// EstimatedPairs is the predicted result size (self-joins count
	// unordered pairs), or -1 when the planner decided without estimating.
	EstimatedPairs int64
	// Selectivity is EstimatedPairs over the total pair count, in [0, 1],
	// or -1 with EstimatedPairs.
	Selectivity float64
}

// The cost model behind the chooser, calibrated from the evaluation:
//
//   - tiny inputs (N ≤ chooseTinyN): nested loop — no build cost to
//     amortize (F1's crossover sits below N≈500);
//   - one dimension: the sort-sweep is exactly the right structure;
//   - very unselective joins (estimated selectivity ≥ chooseGridSel):
//     grid — F3 shows every ε-structure converging once most stripe
//     pairs join, and the grid's flat per-cell overhead wins the tie;
//   - everything else: the ε-kdB tree (fastest on every other row of
//     F1–F6/T1).
const (
	chooseTinyN   = 400
	chooseGridSel = 0.02
)

// chooseFrom applies the calibrated decision rules. selectivity is
// called only when the rules actually need an estimate, so trivial
// workloads never pay for one.
func chooseFrom(n, dims int, selectivity func() float64) Algorithm {
	switch {
	case n <= chooseTinyN:
		return AlgorithmBrute
	case dims == 1:
		return AlgorithmSweep
	case selectivity() >= chooseGridSel:
		return AlgorithmGrid
	default:
		return AlgorithmEKDB
	}
}

const (
	// sampleSize bounds the transient sample an unsketched dataset is
	// planned from. Planning costs one exact count over the sample,
	// quadratic in it; 1 000 keeps that near a millisecond while the
	// scaled count stays within a small factor on the evaluated workloads.
	sampleSize = 1000
	// autoSeed draws the transient sample; fixed so Auto is deterministic
	// run to run.
	autoSeed = 0x5e1ec7
)

// plan runs the chooser over a workload of n points in dims dimensions
// with total candidate pairs. sel reads the selectivity off a sketch; it
// runs at most once — when the chooser asks for it, or afterwards when
// full is set — so tiny and one-dimensional inputs decide without it.
func plan(n, dims int, total int64, full bool, sel func() float64) Plan {
	p := Plan{EstimatedPairs: -1, Selectivity: -1}
	estimate := func() float64 {
		if p.EstimatedPairs < 0 {
			p.Selectivity = sel()
			p.EstimatedPairs = int64(p.Selectivity*float64(total) + 0.5)
		}
		return p.Selectivity
	}
	p.Algorithm = chooseFrom(n, dims, estimate)
	if full {
		estimate()
	}
	return p
}

// planSelf predicts a self-join over ds from its resident sketch or, when
// none is attached, from a transient sketch over a seeded uniform sample
// of min(n, sampleSize) points, built only once an estimate is wanted.
// full asks for the estimate even when the choice does not need it; a
// resident sketch always answers, since reading it costs no pass over
// the points.
func planSelf(ds *Dataset, m Metric, eps float64, full bool) Plan {
	sk := ds.sk.internal()
	n := int64(ds.Len())
	return plan(ds.Len(), ds.Dims(), n*(n-1)/2, full || sk != nil, func() float64 {
		if sk == nil {
			sk = sketch.Sample(ds.internal(), sampleSize, autoSeed)
		}
		return sk.SelfSelectivity(m.internal(), eps)
	})
}

// planJoin is planSelf for a two-set join: each side reads its resident
// sketch or a transient one. The workload is judged by both sides — the
// total point count against the tiny-input rule, the cross selectivity —
// so a small outer set probing a large inner set is not mistaken for a
// tiny workload.
func planJoin(a, b *Dataset, m Metric, eps float64, full bool) Plan {
	ska, skb := a.sk.internal(), b.sk.internal()
	return plan(a.Len()+b.Len(), a.Dims(), int64(a.Len())*int64(b.Len()), full || ska != nil && skb != nil, func() float64 {
		if ska == nil {
			ska = sketch.Sample(a.internal(), sampleSize, autoSeed)
		}
		if skb == nil {
			skb = sketch.Sample(b.internal(), sampleSize, autoSeed^0x7ab1e5)
		}
		return ska.JoinSelectivity(skb, m.internal(), eps)
	})
}

// PlanSelfJoin predicts a self-join over ds at the given metric and ε,
// from the dataset's attached sketch when one is present — no pass over
// the raw points — and from a transient sample sketch otherwise. Unlike
// the planning AlgorithmAuto does inline (which skips estimating when
// the algorithm choice is forced anyway), the prediction is always
// filled.
func PlanSelfJoin(ds *Dataset, m Metric, eps float64) Plan {
	return planSelf(ds, m, eps, true)
}

// PlanJoin is PlanSelfJoin for a two-set join.
func PlanJoin(a, b *Dataset, m Metric, eps float64) Plan {
	return planJoin(a, b, m, eps, true)
}

// Explanation is the EXPLAIN report for a prospective join: the request
// as the planner understood it, the engine that would actually run, and
// the always-filled size prediction — everything a caller needs to
// judge a query before paying for it.
type Explanation struct {
	// Eps and Metric echo the request.
	Eps    float64
	Metric Metric
	// Requested is the algorithm the options named ("" when the caller
	// left the default).
	Requested Algorithm
	// Algorithm is the engine that would run: the default for "", the
	// planner's choice for AlgorithmAuto, the explicit name otherwise.
	Algorithm Algorithm
	// Keys is the key kind the ε-kdB tree would take (JoinStats.Keys),
	// decided here from the same sample the build uses; empty for every
	// other engine.
	Keys string
	// Plan is the size prediction, filled even when the algorithm choice
	// did not need it (an explicit algorithm still gets priced).
	Plan Plan
}

// Explain reports what a SelfJoin with these options would do — resolved
// engine plus prediction — without running it. The prediction comes from
// the dataset's resident sketch when one is attached (O(1), no pass over
// the points) and a transient sample sketch otherwise.
func Explain(ds *Dataset, opt Options) (Explanation, error) {
	if err := opt.validate(); err != nil {
		return Explanation{}, err
	}
	return explanation(opt, PlanSelfJoin(ds, opt.Metric, opt.Eps), ds.internal()), nil
}

// ExplainJoin is Explain for a two-set join.
func ExplainJoin(a, b *Dataset, opt Options) (Explanation, error) {
	if err := opt.validate(); err != nil {
		return Explanation{}, err
	}
	if err := checkJoinDims(a, b); err != nil {
		return Explanation{}, err
	}
	return explanation(opt, PlanJoin(a, b, opt.Metric, opt.Eps), a.internal(), b.internal()), nil
}

func explanation(opt Options, pl Plan, sets ...*dataset.Dataset) Explanation {
	ex := Explanation{
		Eps:       opt.Eps,
		Metric:    opt.Metric,
		Requested: opt.Algorithm,
		Plan:      pl,
	}
	ex.Algorithm, _ = resolve(opt, nil, func() Plan { return pl })
	if ex.Algorithm == AlgorithmEKDB {
		ex.Keys = core.PlanKeys(opt.Eps, opt.treeConfig(), sets...)
	}
	return ex
}
