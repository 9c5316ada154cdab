package simjoin

import (
	"math"
	"testing"

	"simjoin/internal/sketch"
)

func synthetic(t *testing.T, kind string, n, dims int, seed int64) *Dataset {
	t.Helper()
	ds, err := Synthetic(kind, n, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func exactSelfCount(t *testing.T, ds *Dataset, m Metric, eps float64) int64 {
	t.Helper()
	no := false
	res, err := SelfJoin(ds, Options{Eps: eps, Metric: m, CollectPairs: &no})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.PairsEmitted
}

// TestSelfJoinSizeSmallIsExact: an unsketched dataset no larger than the
// transient sample is its own sample, so the planner's estimate is the
// exact count under every metric — what the sampling estimator answered.
func TestSelfJoinSizeSmallIsExact(t *testing.T) {
	ds := synthetic(t, "clustered", sampleSize, 4, 1)
	for _, m := range []Metric{L2, L1, Linf} {
		if got, want := PlanSelfJoin(ds, m, 0.1).EstimatedPairs, exactSelfCount(t, ds, m, 0.1); got != want {
			t.Errorf("%v: estimate %d, exact %d", m, got, want)
		}
	}
}

// TestJoinSizeAgainstExact is the two-set counterpart: both sides fit in
// their samples, so the estimate is the exact cross count.
func TestJoinSizeAgainstExact(t *testing.T) {
	a := synthetic(t, "clustered", 250, 4, 20)
	b := synthetic(t, "clustered", 200, 4, 21)
	no := false
	res, err := Join(a, b, Options{Eps: 0.15, CollectPairs: &no})
	if err != nil {
		t.Fatal(err)
	}
	if got := PlanJoin(a, b, L2, 0.15).EstimatedPairs; got != res.Stats.PairsEmitted {
		t.Errorf("small PlanJoin = %d, exact %d", got, res.Stats.PairsEmitted)
	}
	if got := PlanJoin(a, NewDataset(4), L2, 0.15).EstimatedPairs; got != 0 {
		t.Errorf("empty side predicted %d pairs", got)
	}
}

// TestSelfJoinSizeLargeWithinFactor: sampled estimates must land within
// a factor of ~4 of the truth on well-populated workloads.
func TestSelfJoinSizeLargeWithinFactor(t *testing.T) {
	for _, kind := range []string{"uniform", "clustered"} {
		ds := synthetic(t, kind, 12000, 4, 2)
		want := exactSelfCount(t, ds, L2, 0.05)
		if want < 100 {
			t.Fatalf("%s: degenerate ground truth %d", kind, want)
		}
		if got := PlanSelfJoin(ds, L2, 0.05).EstimatedPairs; got < want/4 || got > want*4 {
			t.Errorf("%s: estimate %d outside 4× band of %d", kind, got, want)
		}
	}
}

func TestSelfJoinSizeDegenerate(t *testing.T) {
	if got := PlanSelfJoin(NewDataset(3), L2, 0.1).EstimatedPairs; got != 0 {
		t.Errorf("empty estimate = %d", got)
	}
	if got := PlanSelfJoin(FromPoints([][]float64{{1, 2, 3}}), L2, 0.1).EstimatedPairs; got != 0 {
		t.Errorf("singleton estimate = %d", got)
	}
}

func TestSelectivityBounds(t *testing.T) {
	ds := synthetic(t, "uniform", 500, 2, 4)
	if tiny := PlanSelfJoin(ds, L2, 0.001).Selectivity; tiny < 0 || tiny > 0.01 {
		t.Errorf("tiny-eps selectivity = %g", tiny)
	}
	if huge := PlanSelfJoin(ds, L2, 5).Selectivity; huge < 0.99 || huge > 1.0001 {
		t.Errorf("diameter-eps selectivity = %g, want ≈1", huge)
	}
	if PlanSelfJoin(NewDataset(2), L2, 1).Selectivity != 0 {
		t.Error("empty selectivity nonzero")
	}
}

func TestChooseRules(t *testing.T) {
	for _, c := range []struct {
		kind      string
		n, dims   int
		seed      int64
		eps       float64
		want      Algorithm
		estimates bool
	}{
		{"uniform", 100, 5, 5, 0.1, AlgorithmBrute, false},
		{"uniform", 5000, 1, 6, 0.01, AlgorithmSweep, false},
		{"uniform", 5000, 3, 7, 0.6, AlgorithmGrid, true},
		{"clustered", 5000, 8, 8, 0.05, AlgorithmEKDB, true},
	} {
		p := planSelf(synthetic(t, c.kind, c.n, c.dims, c.seed), L2, c.eps, false)
		if p.Algorithm != c.want {
			t.Errorf("%s n=%d d=%d: chose %s, want %s", c.kind, c.n, c.dims, p.Algorithm, c.want)
		}
		// Tiny and one-dimensional inputs decide without estimating.
		if got := p.EstimatedPairs >= 0; got != c.estimates {
			t.Errorf("%s n=%d d=%d: estimated = %v, want %v", c.kind, c.n, c.dims, got, c.estimates)
		}
	}
}

func TestChooseJoinRules(t *testing.T) {
	choose := func(a, b *Dataset, eps float64) Algorithm { return planJoin(a, b, L2, eps, false).Algorithm }
	// Tiny on BOTH sides: nested loop.
	a := synthetic(t, "uniform", 120, 5, 10)
	b := synthetic(t, "uniform", 150, 5, 11)
	if got := choose(a, b, 0.1); got != AlgorithmBrute {
		t.Errorf("tiny×tiny chose %s", got)
	}
	// A tiny outer set probing a large inner set passes the single-set
	// N ≤ 400 rule but must NOT pick brute — the workload is |a|·|b|
	// comparisons, not |a|².
	big := synthetic(t, "clustered", 6000, 5, 12)
	if got := planSelf(a, L2, 0.05, false).Algorithm; got != AlgorithmBrute {
		t.Fatalf("precondition: self plan of a = %s, want brute", got)
	}
	if got := choose(a, big, 0.05); got == AlgorithmBrute {
		t.Errorf("tiny×large chose brute")
	}
	if got := choose(synthetic(t, "uniform", 3000, 1, 13), synthetic(t, "uniform", 3000, 1, 14), 0.01); got != AlgorithmSweep {
		t.Errorf("1-D chose %s", got)
	}
	if got := choose(synthetic(t, "uniform", 4000, 3, 15), synthetic(t, "uniform", 4000, 3, 16), 0.6); got != AlgorithmGrid {
		t.Errorf("unselective chose %s", got)
	}
	if got := choose(synthetic(t, "clustered", 4000, 8, 17), synthetic(t, "clustered", 4000, 8, 18), 0.05); got != AlgorithmEKDB {
		t.Errorf("typical chose %s", got)
	}
}

// TestPlanShortCircuitsDegenerateEps: non-finite or non-positive ε is
// answered by the sketch's own degenerate cases, with the trivially known
// prediction filled in.
func TestPlanShortCircuitsDegenerateEps(t *testing.T) {
	ds := synthetic(t, "uniform", 5000, 4, 33)
	n := int64(ds.Len())
	for _, eps := range []float64{0, -1, math.NaN()} {
		if p := PlanSelfJoin(ds, L2, eps); p.EstimatedPairs != 0 || p.Selectivity != 0 {
			t.Errorf("eps=%g: predicted %d pairs, selectivity %g, want 0/0", eps, p.EstimatedPairs, p.Selectivity)
		}
	}
	if p := PlanSelfJoin(ds, L2, math.Inf(1)); p.EstimatedPairs != n*(n-1)/2 || p.Selectivity != 1 || p.Algorithm != AlgorithmGrid {
		t.Errorf("eps=+Inf: prediction %+v", p)
	}
	if pj := PlanJoin(ds, ds, L2, math.NaN()); pj.EstimatedPairs != 0 {
		t.Errorf("join eps=NaN: predicted %d pairs", pj.EstimatedPairs)
	}
}

// TestPlanPredictionFields: Auto's inline plan reports -1 when it decided
// without estimating; PlanSelfJoin always fills the prediction, and both
// agree whenever the choice needed one.
func TestPlanPredictionFields(t *testing.T) {
	tiny := synthetic(t, "uniform", 100, 5, 34)
	if p := planSelf(tiny, L2, 0.1, false); p.Algorithm != AlgorithmBrute || p.EstimatedPairs != -1 || p.Selectivity != -1 {
		t.Errorf("tiny inline: %+v", p)
	}
	if p, want := PlanSelfJoin(tiny, L2, 0.1), exactSelfCount(t, tiny, L2, 0.1); p.EstimatedPairs != want {
		t.Errorf("tiny PlanSelfJoin: %+v, want %d pairs", p, want)
	}
	typical := synthetic(t, "clustered", 5000, 8, 35)
	inline, full := planSelf(typical, L2, 0.05, false), PlanSelfJoin(typical, L2, 0.05)
	if inline.Algorithm != AlgorithmEKDB || inline.EstimatedPairs < 0 || inline != full {
		t.Errorf("typical: inline %+v, PlanSelfJoin %+v", inline, full)
	}
}

// TestSketchPlannerAgreesWithSampling: across the EXPERIMENTS.md workload
// regimes (F1 tiny-N crossover, 1-D, the F3 unselective convergence,
// F2-style clustered selective joins), a resident sketch and the
// transient sample must pick the same engine.
func TestSketchPlannerAgreesWithSampling(t *testing.T) {
	for _, w := range []struct {
		name, kind string
		n, dims    int
		seed       int64
		eps        float64
	}{
		{"F1-tiny", "uniform", 100, 5, 40, 0.1},
		{"one-dim", "uniform", 5000, 1, 41, 0.01},
		{"F3-unselective", "uniform", 5000, 3, 42, 0.6},
		{"F2-clustered-d4", "clustered", 5000, 4, 43, 0.05},
		{"F1-uniform-d8", "uniform", 5000, 8, 44, 0.1},
		{"F2-clustered-d16", "clustered", 5000, 16, 45, 0.05},
	} {
		ds := synthetic(t, w.kind, w.n, w.dims, w.seed)
		sampled := PlanSelfJoin(ds, L2, w.eps)
		ds.EnableSketch()
		resident := PlanSelfJoin(ds, L2, w.eps)
		if resident.Algorithm != sampled.Algorithm {
			t.Errorf("%s: resident sketch chose %s (sel %.4f), transient sample chose %s (sel %.4f)",
				w.name, resident.Algorithm, resident.Selectivity, sampled.Algorithm, sampled.Selectivity)
		}
	}
}

// TestPlanJoinSketch: the two-set planner over two resident sketches
// picks what the transient samples pick, and always prices.
func TestPlanJoinSketch(t *testing.T) {
	a := synthetic(t, "clustered", 3000, 4, 50)
	b := synthetic(t, "clustered", 3000, 4, 50)
	sampled := PlanJoin(a, b, L2, 0.1)
	a.EnableSketch()
	b.AttachSketch(&SizeSketch{sk: sketch.FromDataset(b.internal(), sketch.Config{Seed: 7})})
	resident := PlanJoin(a, b, L2, 0.1)
	if resident.Algorithm != sampled.Algorithm {
		t.Errorf("resident sketches chose %s, transient samples chose %s", resident.Algorithm, sampled.Algorithm)
	}
	if resident.EstimatedPairs < 0 {
		t.Errorf("no pair prediction: %+v", resident)
	}
}
