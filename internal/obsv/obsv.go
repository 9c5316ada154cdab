// Package obsv is the observability layer of the repository: cheap atomic
// instrumentation shared by every join engine (per-phase wall time), and a
// dependency-free Prometheus-text metrics registry (counters, latency
// histograms, gauges) used by the simjoind daemons. The package exists so
// the performance evaluation — the paper's entire contribution — has a
// machine-readable trajectory: engines charge phase timers through
// join.Options, the public API surfaces them via simjoin.Options.Stats,
// the daemons serve them at /metrics, and the repo benchmark (benchmark/)
// reads both to report its per-layer metrics.
package obsv

import (
	"sync/atomic"
	"time"
)

// Phases accumulates per-phase wall-clock time of one join run. All adds
// are atomic so a run's serial prologue (index build) and its parallel
// epilogue (probe) can charge the same Phases without coordination; the
// engines charge each phase exactly once per entry point, from the
// coordinating goroutine, so sums stay comparable to wall time.
//
// Build and probe mirror the paper's cost decomposition: every algorithm
// first organizes the data (sort, hash, tree build — "build"), then
// enumerates candidate pairs against that organization ("probe"). Brute
// force has a zero build phase by construction. Collect is what a run that
// returns its pairs pays after the probe — merging the workers' shards,
// sorting, converting to the public pair type; the public entry points
// charge it, and counting and streaming runs leave it zero.
type Phases struct {
	build   atomic.Int64 // nanoseconds
	probe   atomic.Int64 // nanoseconds
	collect atomic.Int64 // nanoseconds
}

// AddBuild charges d to the index-construction phase.
func (p *Phases) AddBuild(d time.Duration) { p.build.Add(int64(d)) }

// AddProbe charges d to the candidate-enumeration phase.
func (p *Phases) AddProbe(d time.Duration) { p.probe.Add(int64(d)) }

// AddCollect charges d to the result-assembly phase.
func (p *Phases) AddCollect(d time.Duration) { p.collect.Add(int64(d)) }

// Build returns the accumulated index-construction time.
func (p *Phases) Build() time.Duration { return time.Duration(p.build.Load()) }

// Probe returns the accumulated candidate-enumeration time.
func (p *Phases) Probe() time.Duration { return time.Duration(p.probe.Load()) }

// Collect returns the accumulated result-assembly time.
func (p *Phases) Collect() time.Duration { return time.Duration(p.collect.Load()) }

// Reset zeroes every phase.
func (p *Phases) Reset() {
	p.build.Store(0)
	p.probe.Store(0)
	p.collect.Store(0)
}
