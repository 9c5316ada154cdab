package simjoin

import (
	"fmt"
	"runtime"
	"time"

	"simjoin/internal/brute"
	"simjoin/internal/core"
	"simjoin/internal/dataset"
	"simjoin/internal/estimate"
	"simjoin/internal/grid"
	"simjoin/internal/hilbert"
	"simjoin/internal/join"
	"simjoin/internal/kdtree"
	"simjoin/internal/obsv"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/pairs"
	"simjoin/internal/rplus"
	"simjoin/internal/rtree"
	"simjoin/internal/stats"
	"simjoin/internal/sweep"
	"simjoin/internal/zorder"
)

// algorithmImpl binds an Algorithm name to its entry points.
type algorithmImpl struct {
	self func(*dataset.Dataset, join.Options, pairs.Sink)
	join func(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink)
	// parallelSelf, when non-nil, is used instead of self when
	// Options.Workers > 1.
	parallelSelf func(*dataset.Dataset, join.Options, func() pairs.Sink)
	// parallelJoin, when non-nil, is used instead of join when
	// Options.Workers > 1.
	parallelJoin func(a, b *dataset.Dataset, opt join.Options, newSink func() pairs.Sink)
}

var registry = map[Algorithm]algorithmImpl{
	AlgorithmBrute: {self: brute.SelfJoin, join: brute.Join},
	AlgorithmSweep: {self: sweep.SelfJoin, join: sweep.Join},
	AlgorithmKDTree: {
		self: kdtree.SelfJoin,
		join: kdtree.Join,
		parallelSelf: func(ds *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
			start := time.Now()
			t := kdtree.Build(ds, 0)
			opt.Timing().AddBuild(time.Since(start))
			t.SelfJoinParallel(opt, newSink)
		},
		parallelJoin: kdtree.JoinParallel,
	},
	AlgorithmRTree:   {self: rtree.SelfJoin, join: rtree.Join},
	AlgorithmRPlus:   {self: rplus.SelfJoin, join: rplus.Join},
	AlgorithmZOrder:  {self: zorder.SelfJoin, join: zorder.Join},
	AlgorithmHilbert: {self: hilbert.SelfJoin, join: hilbert.Join},
	AlgorithmAuto:    {}, // resolved per call in resolveAlgorithm
	AlgorithmGrid: {
		self: grid.SelfJoin,
		join: grid.Join,
		parallelSelf: func(ds *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
			grid.SelfJoinParallel(ds, opt, grid.DefaultConfig(), newSink)
		},
		parallelJoin: func(a, b *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
			grid.JoinParallel(a, b, opt, grid.DefaultConfig(), newSink)
		},
	},
	AlgorithmEKDB: {}, // wired in init: needs per-call Config
}

func init() {
	impl := registry[AlgorithmEKDB]
	impl.self = core.SelfJoin
	impl.join = core.Join
	impl.parallelJoin = core.JoinParallel
	registry[AlgorithmEKDB] = impl
}

// toInternal converts public options to the internal contract.
func (o Options) toInternal(c *stats.Counters, ph *obsv.Phases) join.Options {
	return join.Options{
		Metric:   o.Metric.internal(),
		Eps:      o.Eps,
		Counters: c,
		Phases:   ph,
		Workers:  o.Workers,
	}
}

// fillStats overwrites o.Stats (when set) with the run's report.
func (o Options) fillStats(p planned, snap stats.Snapshot, ph *obsv.Phases, pairsEmitted int64, elapsed time.Duration) {
	if o.Stats == nil {
		return
	}
	*o.Stats = JoinStats{
		Algorithm:      p.algo,
		DistComps:      snap.DistComps,
		Candidates:     snap.Candidates,
		NodeVisits:     snap.NodeVisits,
		PairsEmitted:   pairsEmitted,
		EstimatedPairs: p.est,
		BuildTime:      ph.Build(),
		ProbeTime:      ph.Probe(),
		Elapsed:        elapsed,
	}
}

// finishSpan seals one entry point's span: the resolved algorithm and
// the run's work counters are recorded, and the engines' phase totals
// become "build" and "probe" child intervals. The intervals reuse the
// obsv.Phases seam — the engines already charged those timers, so
// nothing is instrumented twice. For parallel runs the probe interval's
// offset is approximate (phases can overlap across goroutines); the
// durations are exact.
func finishSpan(sp *trace.Span, algo Algorithm, snap stats.Snapshot, ph *obsv.Phases, pairsEmitted int64) {
	if sp == nil {
		return
	}
	sp.SetAttr("algorithm", string(algo))
	sp.AddCounter("dist_comps", snap.DistComps)
	sp.AddCounter("candidates", snap.Candidates)
	sp.AddCounter("node_visits", snap.NodeVisits)
	sp.AddCounter("pairs_emitted", pairsEmitted)
	build := ph.Build()
	if build > 0 {
		sp.ChildInterval("build", sp.StartTime(), build)
	}
	if probe := ph.Probe(); probe > 0 {
		sp.ChildInterval("probe", sp.StartTime().Add(build), probe)
	}
	sp.End()
}

// SelfJoin reports every unordered pair of points in ds within opt.Eps,
// each exactly once with I < J.
func SelfJoin(ds *Dataset, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	sp := opt.Trace.Child("simjoin.SelfJoin")
	plan := planSelf(ds, opt, sp)
	algo := plan.algo
	impl := registry[algo]

	watch := stats.Start()
	if !opt.collect() {
		// Counting-only: no pair buffering at all.
		var sink pairs.Counter
		switch {
		case algo == AlgorithmEKDB:
			runEKDBSelfCounting(ds.internal(), iopt, opt, &sink)
		case opt.Workers > 1 && impl.parallelSelf != nil:
			impl.parallelSelf(ds.internal(), iopt, func() pairs.Sink { return &sink })
		default:
			impl.self(ds.internal(), iopt, &sink)
		}
		elapsed := watch.Elapsed()
		snap := counters.Snapshot()
		opt.fillStats(plan, snap, &phases, sink.N(), elapsed)
		finishSpan(sp, algo, snap, &phases, sink.N())
		return countResult(sink.N(), snap, elapsed), nil
	}
	var collected []pairs.Pair
	switch {
	case algo == AlgorithmEKDB:
		collected = runEKDBSelf(ds.internal(), iopt, opt)
	case opt.Workers > 1 && impl.parallelSelf != nil:
		sh := pairs.NewSharded(true)
		impl.parallelSelf(ds.internal(), iopt, sh.Handle)
		collected = sh.Merged()
	default:
		col := &pairs.Collector{Canonical: true}
		impl.self(ds.internal(), iopt, col)
		collected = col.Sorted()
	}
	elapsed := watch.Elapsed()
	snap := counters.Snapshot()
	opt.fillStats(plan, snap, &phases, int64(len(collected)), elapsed)
	finishSpan(sp, algo, snap, &phases, int64(len(collected)))
	return buildResult(collected, snap, elapsed, opt), nil
}

// runEKDBSelfCounting is runEKDBSelf without pair storage.
func runEKDBSelfCounting(ds *dataset.Dataset, iopt join.Options, opt Options, sink pairs.Sink) {
	if ds.Len() < 2 {
		return
	}
	cfg := core.Config{LeafThreshold: opt.LeafThreshold, BiasedSplit: opt.BiasedSplit}
	start := time.Now()
	t := core.Build(ds, opt.Eps, cfg)
	iopt.Timing().AddBuild(time.Since(start))
	if opt.Workers > 1 {
		t.SelfJoinParallel(iopt, func() pairs.Sink { return sink })
		return
	}
	t.SelfJoin(iopt, sink)
}

// countResult assembles a Result for counting-only runs.
func countResult(n int64, snap stats.Snapshot, elapsed time.Duration) *Result {
	return &Result{Stats: Stats{
		Candidates: snap.Candidates,
		DistComps:  snap.DistComps,
		Results:    n,
		NodeVisits: snap.NodeVisits,
		Elapsed:    elapsed,
	}}
}

// runEKDBSelf runs the ε-kdB self-join with the public options' tree knobs.
func runEKDBSelf(ds *dataset.Dataset, iopt join.Options, opt Options) []pairs.Pair {
	if ds.Len() < 2 {
		return nil
	}
	cfg := core.Config{LeafThreshold: opt.LeafThreshold, BiasedSplit: opt.BiasedSplit}
	start := time.Now()
	t := core.Build(ds, opt.Eps, cfg)
	iopt.Timing().AddBuild(time.Since(start))
	if opt.Workers > 1 {
		sh := pairs.NewSharded(true)
		t.SelfJoinParallel(iopt, sh.Handle)
		return sh.Merged()
	}
	col := &pairs.Collector{Canonical: true}
	t.SelfJoin(iopt, col)
	return col.Sorted()
}

// Join reports every pair (i, j) with dist(a[i], b[j]) ≤ opt.Eps. The two
// datasets must share one dimensionality (an error otherwise). Workers > 1
// runs the parallel variant when the algorithm has one (ekdb, grid,
// kdtree); the result is identical to the serial run.
func Join(a, b *Dataset, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := checkJoinDims(a, b); err != nil {
		return nil, err
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	sp := opt.Trace.Child("simjoin.Join")
	plan := planJoin(a, b, opt, sp)
	algo := plan.algo
	impl := registry[algo]
	watch := stats.Start()
	if !opt.collect() {
		var sink pairs.Counter
		if opt.Workers > 1 && impl.parallelJoin != nil {
			impl.parallelJoin(a.internal(), b.internal(), iopt, func() pairs.Sink { return &sink })
		} else {
			impl.join(a.internal(), b.internal(), iopt, &sink)
		}
		elapsed := watch.Elapsed()
		snap := counters.Snapshot()
		opt.fillStats(plan, snap, &phases, sink.N(), elapsed)
		finishSpan(sp, algo, snap, &phases, sink.N())
		return countResult(sink.N(), snap, elapsed), nil
	}
	var collected []pairs.Pair
	if opt.Workers > 1 && impl.parallelJoin != nil {
		sh := pairs.NewSharded(false)
		impl.parallelJoin(a.internal(), b.internal(), iopt, sh.Handle)
		collected = sh.Merged()
	} else {
		col := &pairs.Collector{}
		impl.join(a.internal(), b.internal(), iopt, col)
		collected = col.Sorted()
	}
	elapsed := watch.Elapsed()
	snap := counters.Snapshot()
	opt.fillStats(plan, snap, &phases, int64(len(collected)), elapsed)
	finishSpan(sp, algo, snap, &phases, int64(len(collected)))
	return buildResult(collected, snap, elapsed, opt), nil
}

// checkJoinDims rejects two-set inputs of different dimensionality before
// they can panic deep inside an algorithm.
func checkJoinDims(a, b *Dataset) error {
	if a.Dims() != b.Dims() {
		return fmt.Errorf("simjoin: joining a %d-dim set with a %d-dim set", a.Dims(), b.Dims())
	}
	return nil
}

// SelfJoinEach streams every qualifying unordered pair (delivered with
// i < j) to fn as it is found, never materializing a Result.Pairs slice —
// memory stays flat no matter how many pairs qualify. fn is always called
// from a single goroutine at a time, in unspecified order. Workers > 1
// runs the parallel variant when the algorithm has one, funneling every
// worker's pairs through one delivery goroutine. The returned Stats match
// a collecting run's.
func SelfJoinEach(ds *Dataset, opt Options, fn func(i, j int)) (Stats, error) {
	if err := opt.validate(); err != nil {
		return Stats{}, err
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	sp := opt.Trace.Child("simjoin.SelfJoinEach")
	plan := planSelf(ds, opt, sp)
	algo := plan.algo
	impl := registry[algo]
	watch := stats.Start()
	var n int64
	deliver := func(i, j int) {
		if j < i {
			i, j = j, i
		}
		n++
		fn(i, j)
	}
	switch {
	case algo == AlgorithmEKDB:
		runEKDBSelfEach(ds.internal(), iopt, opt, deliver)
	case opt.Workers > 1 && impl.parallelSelf != nil:
		f := pairs.NewFunnel(deliver)
		impl.parallelSelf(ds.internal(), iopt, f.Handle)
		f.Close()
	default:
		impl.self(ds.internal(), iopt, pairs.Func(deliver))
	}
	elapsed := watch.Elapsed()
	snap := counters.Snapshot()
	opt.fillStats(plan, snap, &phases, n, elapsed)
	finishSpan(sp, algo, snap, &phases, n)
	return eachStats(n, snap, elapsed), nil
}

// runEKDBSelfEach is the streaming counterpart of runEKDBSelf: the tree is
// built with the public options' knobs and pairs flow to deliver (via a
// funnel when parallel).
func runEKDBSelfEach(ds *dataset.Dataset, iopt join.Options, opt Options, deliver func(i, j int)) {
	if ds.Len() < 2 {
		return
	}
	cfg := core.Config{LeafThreshold: opt.LeafThreshold, BiasedSplit: opt.BiasedSplit}
	start := time.Now()
	t := core.Build(ds, opt.Eps, cfg)
	iopt.Timing().AddBuild(time.Since(start))
	if opt.Workers > 1 {
		f := pairs.NewFunnel(deliver)
		t.SelfJoinParallel(iopt, f.Handle)
		f.Close()
		return
	}
	t.SelfJoin(iopt, pairs.Func(deliver))
}

// JoinEach streams every (a-index, b-index) pair within opt.Eps to fn as
// it is found, with the same callback contract as SelfJoinEach:
// single-goroutine delivery, unspecified order, flat memory. Workers > 1
// runs the parallel variant when the algorithm has one.
func JoinEach(a, b *Dataset, opt Options, fn func(i, j int)) (Stats, error) {
	if err := opt.validate(); err != nil {
		return Stats{}, err
	}
	if err := checkJoinDims(a, b); err != nil {
		return Stats{}, err
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	sp := opt.Trace.Child("simjoin.JoinEach")
	plan := planJoin(a, b, opt, sp)
	algo := plan.algo
	impl := registry[algo]
	watch := stats.Start()
	var n int64
	deliver := func(i, j int) {
		n++
		fn(i, j)
	}
	if opt.Workers > 1 && impl.parallelJoin != nil {
		f := pairs.NewFunnel(deliver)
		impl.parallelJoin(a.internal(), b.internal(), iopt, f.Handle)
		f.Close()
	} else {
		impl.join(a.internal(), b.internal(), iopt, pairs.Func(deliver))
	}
	elapsed := watch.Elapsed()
	snap := counters.Snapshot()
	opt.fillStats(plan, snap, &phases, n, elapsed)
	finishSpan(sp, algo, snap, &phases, n)
	return eachStats(n, snap, elapsed), nil
}

// eachStats assembles the Stats of a streaming run.
func eachStats(n int64, snap stats.Snapshot, elapsed time.Duration) Stats {
	return Stats{
		Candidates: snap.Candidates,
		DistComps:  snap.DistComps,
		Results:    n,
		NodeVisits: snap.NodeVisits,
		Elapsed:    elapsed,
	}
}

func buildResult(ps []pairs.Pair, snap stats.Snapshot, elapsed time.Duration, opt Options) *Result {
	res := &Result{Stats: Stats{
		Candidates: snap.Candidates,
		DistComps:  snap.DistComps,
		Results:    int64(len(ps)),
		NodeVisits: snap.NodeVisits,
		Elapsed:    elapsed,
	}}
	if opt.collect() {
		res.Pairs = make([]Pair, len(ps))
		for i, p := range ps {
			res.Pairs[i] = Pair{I: int(p.I), J: int(p.J)}
		}
	}
	return res
}

// autoSeed shuffles the subsample when AlgorithmAuto falls back to the
// sampling estimator. Fixed so Auto is deterministic run to run.
const autoSeed = 0x5e1ec7

// planned is the outcome of pre-run planning: the concrete algorithm
// that will run plus the result-size estimate that drove the choice
// (est is -1 when the run decided without estimating — an explicit
// algorithm was requested, or Auto short-circuited on a trivial input).
type planned struct {
	algo     Algorithm
	est      int64
	sketched bool
}

// planSelf maps the empty default and AlgorithmAuto to a concrete
// algorithm for self-joins. Auto consults the dataset's resident sketch
// when one is attached — zero passes over the raw points — and falls
// back to the sampling estimator otherwise; the chooser's rules are
// documented in internal/estimate. The decision is recorded as an
// "estimate" child span of sp.
func planSelf(ds *Dataset, opt Options, sp *trace.Span) planned {
	switch opt.Algorithm {
	case "":
		return planned{algo: AlgorithmEKDB, est: -1}
	case AlgorithmAuto:
		esp := sp.Child("estimate")
		var p estimate.Prediction
		source := "sample"
		if sk := ds.sk.internal(); sk != nil {
			source = "sketch"
			p = estimate.PlanSketch(sk, ds.Len(), opt.Metric.internal(), opt.Eps)
		} else {
			p = estimate.Plan(ds.internal(), opt.Metric.internal(), opt.Eps, autoSeed)
		}
		finishEstimateSpan(esp, source, p)
		return planned{algo: Algorithm(p.Algorithm), est: p.Pairs, sketched: p.Sketched}
	default:
		return planned{algo: opt.Algorithm, est: -1}
	}
}

// planJoin is planSelf for two-set joins: Auto judges both sets, so a
// tiny outer set joined against a huge inner set is judged by the
// workload's true size rather than the outer set alone. The sketch path
// needs a sketch on each side; anything less falls back to sampling.
func planJoin(a, b *Dataset, opt Options, sp *trace.Span) planned {
	switch opt.Algorithm {
	case "":
		return planned{algo: AlgorithmEKDB, est: -1}
	case AlgorithmAuto:
		esp := sp.Child("estimate")
		var p estimate.Prediction
		source := "sample"
		if ska, skb := a.sk.internal(), b.sk.internal(); ska != nil && skb != nil {
			source = "sketch"
			p = estimate.PlanJoinSketch(ska, skb, a.Len(), b.Len(), opt.Metric.internal(), opt.Eps)
		} else {
			p = estimate.PlanJoin(a.internal(), b.internal(), opt.Metric.internal(), opt.Eps, autoSeed)
		}
		finishEstimateSpan(esp, source, p)
		return planned{algo: Algorithm(p.Algorithm), est: p.Pairs, sketched: p.Sketched}
	default:
		return planned{algo: opt.Algorithm, est: -1}
	}
}

// finishEstimateSpan seals the planner's span: where the estimate came
// from, what it predicted, and what the chooser picked.
func finishEstimateSpan(sp *trace.Span, source string, p estimate.Prediction) {
	if sp == nil {
		return
	}
	sp.SetAttr("source", source)
	sp.SetAttr("algorithm", string(p.Algorithm))
	sp.AddCounter("predicted_pairs", p.Pairs)
	sp.End()
}

// DefaultWorkers returns the worker count the parallel variants use for
// Options.Workers values ≤ 0 passed through to them (GOMAXPROCS).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
