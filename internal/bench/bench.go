// Package bench is the reproduction harness: one function per figure/table
// of the evaluation (see DESIGN.md §4), each returning a stats.Table with
// the same rows the paper-style report prints. cmd/repro drives the full
// suite; bench_test.go holds testing.B counterparts for micro-level timing.
//
// Every experiment is deterministic (fixed seeds) and has a quick variant
// for CI-scale runs; absolute times vary with hardware but the shapes the
// evaluation argues from (who wins, by what factor, where the crossovers
// fall) are stable.
package bench

import (
	"time"

	"simjoin/internal/brute"
	"simjoin/internal/core"
	"simjoin/internal/dataset"
	"simjoin/internal/grid"
	"simjoin/internal/hilbert"
	"simjoin/internal/join"
	"simjoin/internal/kdtree"
	"simjoin/internal/pairs"
	"simjoin/internal/rplus"
	"simjoin/internal/rtree"
	"simjoin/internal/stats"
	"simjoin/internal/sweep"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
	"simjoin/internal/zorder"
)

// AlgoNames lists the compared algorithms in report order.
var AlgoNames = []string{"brute", "sweep", "grid", "kdtree", "rtree", "rplus", "zorder", "ekdb"}

// engines maps algorithm names to their entry points. Every run here is a
// one-worker run, on the caller's goroutine.
var engines = map[string]join.Engine{
	"brute":   join.Serial(brute.SelfJoin, brute.Join),
	"sweep":   join.Serial(sweep.SelfJoin, sweep.Join),
	"grid":    {Self: grid.SelfJoin, Join: grid.Join},
	"kdtree":  {Self: kdtree.SelfJoin, Join: kdtree.Join},
	"rtree":   join.Serial(rtree.SelfJoin, rtree.Join),
	"rplus":   join.Serial(rplus.SelfJoin, rplus.Join),
	"zorder":  join.Serial(zorder.SelfJoin, zorder.Join),
	"hilbert": join.Serial(hilbert.SelfJoin, hilbert.Join),
	"ekdb":    join.Serial(core.SelfJoin, core.Join),
}

// engine looks up the named algorithm.
func engine(algo string) join.Engine {
	e, ok := engines[algo]
	if !ok {
		panic("bench: unknown algorithm " + algo)
	}
	return e
}

// RunResult captures one measured algorithm run.
type RunResult struct {
	Algo    string
	Elapsed time.Duration
	Snap    stats.Snapshot
	Pairs   int64
}

// RunSelf measures one self-join run of the named algorithm.
func RunSelf(algo string, ds *dataset.Dataset, metric vec.Metric, eps float64) RunResult {
	self := engine(algo).Self
	var c stats.Counters
	opt := join.Options{Metric: metric, Eps: eps, Counters: &c}
	var sink pairs.Counter
	watch := stats.Start()
	self(ds, opt, func() pairs.Sink { return &sink })
	elapsed := watch.Elapsed()
	return RunResult{Algo: algo, Elapsed: elapsed, Snap: c.Snapshot(), Pairs: sink.N()}
}

// RunJoin measures one two-set join run of the named algorithm.
func RunJoin(algo string, a, b *dataset.Dataset, metric vec.Metric, eps float64) RunResult {
	two := engine(algo).Join
	var c stats.Counters
	opt := join.Options{Metric: metric, Eps: eps, Counters: &c}
	var sink pairs.Counter
	watch := stats.Start()
	two(a, b, opt, func() pairs.Sink { return &sink })
	elapsed := watch.Elapsed()
	return RunResult{Algo: algo, Elapsed: elapsed, Snap: c.Snapshot(), Pairs: sink.N()}
}

// Uniform returns the standard uniform workload of the evaluation.
func Uniform(n, dims int, seed int64) *dataset.Dataset {
	return synth.Generate(synth.Config{N: n, Dims: dims, Seed: seed, Dist: synth.Uniform})
}

// ms renders a duration as fractional milliseconds for table cells.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// CalibrateEps finds an ε giving approximately targetPairs self-join
// results on ds under metric m, by bisection over a brute-force count on a
// subsample (scaled quadratically back to the full set). The evaluation
// uses it to hold selectivity roughly constant while dimensionality varies
// — otherwise "time vs d" would mostly measure output size.
func CalibrateEps(ds *dataset.Dataset, m vec.Metric, targetPairs int64) float64 {
	const sampleCap = 1500
	sample := ds
	scale := 1.0
	if ds.Len() > sampleCap {
		c := ds.Clone()
		c.Shuffle(12345)
		sample = c.Head(sampleCap)
		r := float64(ds.Len()) / float64(sampleCap)
		scale = r * r
	}
	target := float64(targetPairs) / scale
	if target < 1 {
		target = 1
	}
	count := func(eps float64) float64 {
		var sink pairs.Counter
		brute.SelfJoin(sample, join.Options{Metric: m, Eps: eps}, &sink)
		return float64(sink.N())
	}
	// Bracket: grow hi until enough pairs.
	lo, hi := 0.0, 0.05
	for count(hi) < target && hi < 64 {
		hi *= 2
	}
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		if count(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
