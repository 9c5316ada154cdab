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

	"simjoin"
	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// AlgoNames lists the compared algorithms in report order.
var AlgoNames = []string{"brute", "sweep", "grid", "kdtree", "rtree", "rplus", "zorder", "ekdb"}

// RunSelf measures one self-join run of the named algorithm: the
// library's engine on one worker, counting only, under L2. It panics on a
// run the library refuses (an unknown algorithm).
func RunSelf(algo string, ds *dataset.Dataset, eps float64) simjoin.JoinStats {
	res, err := simjoin.SelfJoin(simjoin.WrapDataset(ds), runOptions(algo, eps))
	if err != nil {
		panic("bench: " + err.Error())
	}
	return res.Stats
}

// RunJoin measures one two-set join run of the named algorithm, as
// RunSelf does.
func RunJoin(algo string, a, b *dataset.Dataset, eps float64) simjoin.JoinStats {
	res, err := simjoin.Join(simjoin.WrapDataset(a), simjoin.WrapDataset(b), runOptions(algo, eps))
	if err != nil {
		panic("bench: " + err.Error())
	}
	return res.Stats
}

// runOptions are the options of every measured run.
func runOptions(algo string, eps float64) simjoin.Options {
	off := false
	return simjoin.Options{Eps: eps, Algorithm: simjoin.Algorithm(algo), Workers: 1, CollectPairs: &off}
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
