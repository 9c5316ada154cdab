// Package jointest provides the oracle harness every join algorithm's tests
// run through: randomized datasets across distributions, dimensionalities,
// metrics and ε values, with the algorithm's pair set compared exactly
// against the brute-force answer. Keeping it in one place means every
// algorithm faces the identical gauntlet.
package jointest

import (
	"fmt"
	"math/rand"
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// SelfJoinFunc is the self-join entry point shared by all algorithm
// packages.
type SelfJoinFunc func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink)

// JoinFunc is the two-set join entry point shared by all algorithm
// packages.
type JoinFunc func(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink)

// Workers adapts a self-join engine that takes one sink per worker (a
// join.Engine's Self) to the checkers: it runs fn at w workers into a
// pairs.Sharded and replays the pairs, duplicates included, into the
// checker's sink.
func Workers(fn func(*dataset.Dataset, join.Options, func() pairs.Sink), w int) SelfJoinFunc {
	return func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		opt.Workers = w
		sh := pairs.NewSharded(false)
		fn(ds, opt, sh.Handle)
		replay(sh, sink)
	}
}

// JoinWorkers is Workers for a two-set engine.
func JoinWorkers(fn func(a, b *dataset.Dataset, opt join.Options, newSink func() pairs.Sink), w int) JoinFunc {
	return func(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		opt.Workers = w
		sh := pairs.NewSharded(false)
		fn(a, b, opt, sh.Handle)
		replay(sh, sink)
	}
}

func replay(sh *pairs.Sharded, sink pairs.Sink) {
	for _, p := range sh.Merged() {
		sink.Emit(int(p.I), int(p.J))
	}
}

// Case describes one randomized oracle scenario.
type Case struct {
	Seed   int64
	N      int
	Dims   int
	Eps    float64
	Metric vec.Metric
	Dist   synth.Distribution
}

func (c Case) String() string {
	return fmt.Sprintf("seed=%d n=%d d=%d eps=%g metric=%v dist=%v", c.Seed, c.N, c.Dims, c.Eps, c.Metric, c.Dist)
}

// Cases generates count deterministic scenarios spanning the parameter
// space: 1–12 dimensions, all metrics, all distributions, ε from
// near-selectivity-zero to "almost everything joins".
func Cases(count int, baseSeed int64) []Case {
	rng := rand.New(rand.NewSource(baseSeed))
	metrics := []vec.Metric{vec.L2, vec.L1, vec.Linf}
	dists := synth.AllDistributions()
	out := make([]Case, count)
	for i := range out {
		out[i] = Case{
			Seed:   rng.Int63(),
			N:      2 + rng.Intn(220),
			Dims:   1 + rng.Intn(12),
			Eps:    0.01 + rng.Float64()*0.6,
			Metric: metrics[rng.Intn(len(metrics))],
			Dist:   dists[rng.Intn(len(dists))],
		}
	}
	return out
}

// Dataset materializes the scenario's point set.
func (c Case) Dataset() *dataset.Dataset {
	return synth.Generate(synth.Config{N: c.N, Dims: c.Dims, Seed: c.Seed, Dist: c.Dist})
}

// Options materializes the scenario's join options.
func (c Case) Options() join.Options {
	return join.Options{Metric: c.Metric, Eps: c.Eps}
}

// CheckSelf runs fn against the brute-force oracle on count randomized
// scenarios. Algorithms may emit self-join pairs in either endpoint order
// but must emit each unordered pair exactly once.
func CheckSelf(t *testing.T, fn SelfJoinFunc, count int, baseSeed int64) {
	t.Helper()
	for _, c := range Cases(count, baseSeed) {
		ds := c.Dataset()
		want := &pairs.Collector{Canonical: true}
		brute.SelfJoin(ds, c.Options(), want)
		got := &pairs.Collector{Canonical: true}
		fn(ds, c.Options(), got)
		g := pairs.Dedup(got.Sorted())
		if len(g) != len(got.Pairs) {
			t.Errorf("%v: emitted duplicate pairs", c)
		}
		if !pairs.Equal(g, want.Sorted()) {
			t.Errorf("%v: wrong result: %s", c, pairs.Diff(g, want.Pairs))
		}
	}
}

// CheckJoin runs fn against the brute-force oracle on count randomized
// two-set scenarios (the second set drawn with a different seed, length, and
// possibly distribution).
func CheckJoin(t *testing.T, fn JoinFunc, count int, baseSeed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(baseSeed ^ 0x5f5f))
	for _, c := range Cases(count, baseSeed) {
		a := c.Dataset()
		bCase := c
		bCase.Seed = rng.Int63()
		bCase.N = 1 + rng.Intn(220)
		bCase.Dist = synth.AllDistributions()[rng.Intn(4)]
		b := bCase.Dataset()
		want := &pairs.Collector{}
		brute.Join(a, b, c.Options(), want)
		got := &pairs.Collector{}
		fn(a, b, c.Options(), got)
		g := pairs.Dedup(got.Sorted())
		if len(g) != len(got.Pairs) {
			t.Errorf("%v: emitted duplicate pairs", c)
		}
		if !pairs.Equal(g, want.Sorted()) {
			t.Errorf("%v vs n=%d: wrong result: %s", c, b.Len(), pairs.Diff(g, want.Pairs))
		}
	}
}

// AdversarialDatasets returns hand-built degenerate datasets that break
// sloppy implementations: coincident points, boundary-exact distances,
// collinear runs, a single cluster smaller than ε, and points on grid-cell
// boundaries.
func AdversarialDatasets(dims int) map[string]*dataset.Dataset {
	out := map[string]*dataset.Dataset{}

	coincident := dataset.New(dims, 6)
	p := make([]float64, dims)
	for i := 0; i < 6; i++ {
		coincident.Append(p)
	}
	out["coincident"] = coincident

	// Points spaced exactly ε=0.25 apart along dimension 0.
	lattice := dataset.New(dims, 9)
	for i := 0; i < 9; i++ {
		q := make([]float64, dims)
		q[0] = 0.25 * float64(i)
		lattice.Append(q)
	}
	out["boundary-lattice"] = lattice

	// Everything inside one ε ball.
	tiny := dataset.New(dims, 8)
	for i := 0; i < 8; i++ {
		q := make([]float64, dims)
		for k := range q {
			q[k] = 0.5 + 0.001*float64(i)
		}
		tiny.Append(q)
	}
	out["single-cluster"] = tiny

	// Two points at opposite corners (nothing joins).
	corners := dataset.New(dims, 2)
	lo, hi := make([]float64, dims), make([]float64, dims)
	for k := range hi {
		hi[k] = 1
	}
	corners.Append(lo)
	corners.Append(hi)
	out["corners"] = corners

	return out
}

// CheckSelfAdversarial runs fn against the oracle on the adversarial
// datasets with ε chosen to sit exactly on the lattice spacing.
func CheckSelfAdversarial(t *testing.T, fn SelfJoinFunc) {
	t.Helper()
	for _, dims := range []int{1, 2, 3, 7} {
		for name, ds := range AdversarialDatasets(dims) {
			for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
				opt := join.Options{Metric: m, Eps: 0.25}
				want := &pairs.Collector{Canonical: true}
				brute.SelfJoin(ds, opt, want)
				got := &pairs.Collector{Canonical: true}
				fn(ds, opt, got)
				g := pairs.Dedup(got.Sorted())
				if len(g) != len(got.Pairs) {
					t.Errorf("%s d=%d %v: duplicate pairs", name, dims, m)
				}
				if !pairs.Equal(g, want.Sorted()) {
					t.Errorf("%s d=%d %v: %s", name, dims, m, pairs.Diff(g, want.Pairs))
				}
			}
		}
	}
}
