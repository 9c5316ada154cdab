// Package join defines the options contract shared by every similarity-join
// algorithm in the library. Each algorithm package (brute, sweep, grid,
// kdtree, rtree, zorder, core) exposes the same two entry points:
//
//	SelfJoin(ds, opt, …)  — all pairs within ε inside one set
//	Join(a, b, opt, …)    — all (a, b) pairs within ε across two sets
//
// Engines that spread their work over goroutines (grid, kdtree) take a
// newSink factory and call it once per worker; the rest take one sink.
// Engine and Serial give both shapes one type, so the public API and the
// benchmark harness can treat them uniformly.
package join

import (
	"fmt"
	"math"
	"sync"

	"simjoin/internal/dataset"
	"simjoin/internal/obsv"
	"simjoin/internal/pairs"
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
	// Workers bounds the goroutines an engine spreads its join over; ≤ 1
	// runs it on the caller's goroutine. Engines that never spread ignore
	// it.
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
func (o Options) WorkerCount() int { return max(o.Workers, 1) }

// Spread runs work(0) … work(workers−1) at once and returns when all of
// them have. The last one runs on the calling goroutine, so one worker
// starts no goroutine: a one-worker join is a serial join. A panic in a
// started worker is recovered there and, once every worker has returned,
// raised again on the calling goroutine, where the caller's own recovery
// (net/http's, for a served join) can catch it; the first one wins.
func Spread(workers int, work func(w int)) {
	var wg sync.WaitGroup
	var once sync.Once
	var first any
	defer wg.Wait()
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { first = p })
				}
			}()
			work(w)
		}()
	}
	if workers > 0 {
		work(workers - 1)
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// Engine is one join algorithm's two entry points. Each calls newSink once
// per worker it runs and emits that worker's pairs into the sink it got.
type Engine struct {
	Self func(ds *dataset.Dataset, opt Options, newSink func() pairs.Sink)
	Join func(a, b *dataset.Dataset, opt Options, newSink func() pairs.Sink)
}

// Serial binds the entry points of an engine that runs on one goroutine:
// it takes one sink, so newSink is called once.
func Serial(self func(*dataset.Dataset, Options, pairs.Sink), two func(a, b *dataset.Dataset, opt Options, sink pairs.Sink)) Engine {
	return Engine{
		Self: func(ds *dataset.Dataset, opt Options, newSink func() pairs.Sink) { self(ds, opt, newSink()) },
		Join: func(a, b *dataset.Dataset, opt Options, newSink func() pairs.Sink) { two(a, b, opt, newSink()) },
	}
}

// Threshold returns the precomputed comparison constant for the options'
// metric and ε (ε² for L2).
func (o Options) Threshold() float64 { return vec.Threshold(o.Metric, o.Eps) }
