// Package join defines the options contract shared by every similarity-join
// algorithm in the library. Each algorithm package (brute, sweep, grid,
// kdtree, rtree, zorder, core) exposes the same two entry points:
//
//	SelfJoin(ds, opt, sink)  — all pairs within ε inside one set
//	Join(a, b, opt, sink)    — all (a, b) pairs within ε across two sets
//
// so the public API and the benchmark harness can treat them uniformly.
package join

import (
	"fmt"
	"math"
	"runtime"

	"simjoin/internal/obsv"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// Options parameterizes a join run. The zero value is invalid (Eps must be
// positive); use Validate before running.
type Options struct {
	// Metric selects the distance function (default vec.L2).
	Metric vec.Metric
	// Eps is the similarity threshold: pairs with dist ≤ Eps are reported.
	Eps float64
	// Counters, if non-nil, receives work metrics (distance computations,
	// candidates, node visits). Algorithms never require it.
	Counters *stats.Counters
	// Phases, if non-nil, receives per-phase wall time: every algorithm
	// charges its index-construction cost to the build phase and its
	// candidate-enumeration cost to the probe phase, each exactly once
	// per entry point. Algorithms never require it.
	Phases *obsv.Phases
	// Workers bounds the goroutines used by parallel variants; ≤ 0 selects
	// GOMAXPROCS. Serial algorithms ignore it.
	Workers int
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if !(o.Eps > 0) || math.IsInf(o.Eps, 0) { // !(Eps > 0) also rejects NaN
		return fmt.Errorf("join: Eps must be positive and finite, got %g", o.Eps)
	}
	if !o.Metric.Valid() {
		return fmt.Errorf("join: invalid metric %d", int(o.Metric))
	}
	return nil
}

// MustValidate panics if the options are invalid. Algorithms call it on
// entry: a silent wrong-ε join is worse than a crash.
func (o Options) MustValidate() {
	if err := o.Validate(); err != nil {
		panic(err)
	}
}

// Stats returns the counters, substituting a shared no-op sink when nil so
// algorithms can charge unconditionally.
func (o Options) Stats() *stats.Counters {
	if o.Counters != nil {
		return o.Counters
	}
	return &discard
}

// discard swallows counter traffic for uninstrumented runs.
var discard stats.Counters

// Timing returns the phase recorder, substituting a shared no-op sink
// when nil so algorithms can charge unconditionally.
func (o Options) Timing() *obsv.Phases {
	if o.Phases != nil {
		return o.Phases
	}
	return &discardPhases
}

// discardPhases swallows phase timings for uninstrumented runs.
var discardPhases obsv.Phases

// WorkerCount resolves Workers to a concrete positive goroutine count.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Threshold returns the precomputed comparison constant for the options'
// metric and ε (ε² for L2).
func (o Options) Threshold() float64 { return vec.Threshold(o.Metric, o.Eps) }
