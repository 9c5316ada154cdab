package simjoin

import (
	"math"

	"simjoin/internal/core"
	"simjoin/internal/dataset"
	"simjoin/internal/estimate"
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
	// unordered pairs).
	EstimatedPairs int64
	// Selectivity is EstimatedPairs over the total pair count, in [0, 1].
	Selectivity float64
	// Sketched reports whether a resident sketch answered (true) or the
	// sampling estimator ran (false).
	Sketched bool
}

// PlanSelfJoin predicts a self-join over ds at the given metric and ε:
// answered by the dataset's attached sketch when one is present — no
// pass over the raw points — and by the sampling estimator otherwise.
// Unlike the planning AlgorithmAuto does inline (which skips estimating
// when the algorithm choice is forced anyway), the returned prediction
// is always filled.
func PlanSelfJoin(ds *Dataset, m Metric, eps float64) Plan {
	im := m.internal()
	if sk := ds.sk.internal(); sk != nil {
		return toPlan(estimate.PlanSketch(sk, ds.Len(), im, eps))
	}
	p := estimate.Plan(ds.internal(), im, eps, autoSeed)
	if p.Pairs < 0 {
		n := int64(ds.Len())
		total := n * (n - 1) / 2
		switch {
		case n < 2 || !(eps > 0):
			p.Pairs, p.Selectivity = 0, 0
		case math.IsInf(eps, 1):
			p.Pairs, p.Selectivity = total, 1
		default:
			p.Pairs = estimate.SelfJoinSize(ds.internal(), im, eps, 0, autoSeed)
			p.Selectivity = float64(p.Pairs) / float64(total)
		}
	}
	return toPlan(p)
}

// PlanJoin is PlanSelfJoin for a two-set join. The sketch path needs a
// sketch on each side; anything less falls back to sampling.
func PlanJoin(a, b *Dataset, m Metric, eps float64) Plan {
	im := m.internal()
	if ska, skb := a.sk.internal(), b.sk.internal(); ska != nil && skb != nil {
		return toPlan(estimate.PlanJoinSketch(ska, skb, a.Len(), b.Len(), im, eps))
	}
	p := estimate.PlanJoin(a.internal(), b.internal(), im, eps, autoSeed)
	if p.Pairs < 0 {
		total := int64(a.Len()) * int64(b.Len())
		switch {
		case total == 0 || !(eps > 0):
			p.Pairs, p.Selectivity = 0, 0
		case math.IsInf(eps, 1):
			p.Pairs, p.Selectivity = total, 1
		default:
			p.Pairs = estimate.JoinSize(a.internal(), b.internal(), im, eps, 0, autoSeed)
			p.Selectivity = float64(p.Pairs) / float64(total)
		}
	}
	return toPlan(p)
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
// the points) and the sampling estimator otherwise.
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
	switch opt.Algorithm {
	case "":
		ex.Algorithm = AlgorithmEKDB
	case AlgorithmAuto:
		ex.Algorithm = pl.Algorithm
	default:
		ex.Algorithm = opt.Algorithm
	}
	if ex.Algorithm == AlgorithmEKDB {
		ex.Keys = core.PlanKeys(opt.Eps, opt.treeConfig(), sets...)
	}
	return ex
}

func toPlan(p estimate.Prediction) Plan {
	return Plan{
		Algorithm:      Algorithm(p.Algorithm),
		EstimatedPairs: p.Pairs,
		Selectivity:    p.Selectivity,
		Sketched:       p.Sketched,
	}
}
