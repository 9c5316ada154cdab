package simjoin

import "simjoin/internal/sketch"

// SizeSketch is an incrementally maintained join-size sketch: a bounded
// reservoir of points plus per-metric distance histograms, updated in
// O(1) per appended point. Once attached to a Dataset (EnableSketch /
// AttachSketch) it answers result-size and selectivity estimates at any
// (metric, ε) without touching the raw points — AlgorithmAuto plans
// from it instead of brute-force joining a fresh subsample, and
// simjoind's admission control prices queries with it. Safe for
// concurrent use. See docs/ESTIMATION.md for accuracy characteristics.
type SizeSketch struct {
	sk *sketch.Sketch
}

// SketchOf builds a sketch over a dataset's current points in one pass.
// The returned sketch is NOT attached; use Dataset.EnableSketch for the
// build-and-attach combination.
func SketchOf(d *Dataset) *SizeSketch {
	return &SizeSketch{sk: sketch.FromDataset(d.internal(), sketch.Config{})}
}

// Observe folds one point into the sketch. It panics on dimensionality
// mismatch. Datasets with an attached sketch call this from Append
// automatically.
func (s *SizeSketch) Observe(p []float64) { s.sk.Observe(p) }

// Points returns how many points the sketch has observed.
func (s *SizeSketch) Points() int64 { return s.sk.Snapshot().Points }

// Reservoir returns how many observed points the sketch currently
// retains verbatim.
func (s *SizeSketch) Reservoir() int { return s.sk.Snapshot().Reservoir }

// SampledPairs returns how many point-pair distances the sketch has
// recorded into its histograms.
func (s *SizeSketch) SampledPairs() int64 { return s.sk.Snapshot().SampledPairs }

// Dims returns the sketch's dimensionality.
func (s *SizeSketch) Dims() int { return s.sk.Dims() }

// SelfJoinSize estimates the number of unordered pairs within eps under
// the metric, over the points observed so far.
func (s *SizeSketch) SelfJoinSize(m Metric, eps float64) int64 {
	return s.sk.SelfJoinSize(m.internal(), eps)
}

// SelfSelectivity estimates the fraction of all unordered pairs within
// eps (in [0, 1]).
func (s *SizeSketch) SelfSelectivity(m Metric, eps float64) float64 {
	return s.sk.SelfSelectivity(m.internal(), eps)
}

// JoinSize estimates the result cardinality of a two-set join between
// this sketch's points and o's. Mismatched dimensionalities estimate 0.
func (s *SizeSketch) JoinSize(o *SizeSketch, m Metric, eps float64) int64 {
	return s.sk.JoinSize(o.sk, m.internal(), eps)
}

// JoinSelectivity estimates the fraction of the cross pairs within eps
// (in [0, 1]).
func (s *SizeSketch) JoinSelectivity(o *SizeSketch, m Metric, eps float64) float64 {
	return s.sk.JoinSelectivity(o.sk, m.internal(), eps)
}

// internal exposes the wrapped sketch to the package's planner wiring.
func (s *SizeSketch) internal() *sketch.Sketch {
	if s == nil {
		return nil
	}
	return s.sk
}
