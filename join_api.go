package simjoin

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"simjoin/internal/brute"
	"simjoin/internal/core"
	"simjoin/internal/dataset"
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

// registry binds each Algorithm name to its engine. The engines that
// spread over workers (grid, kdtree) take newSink as is; join.Serial
// binds the rest, which take one sink.
var registry = map[Algorithm]join.Engine{
	AlgorithmBrute:   join.Serial(brute.SelfJoin, brute.Join),
	AlgorithmSweep:   join.Serial(sweep.SelfJoin, sweep.Join),
	AlgorithmKDTree:  {Self: kdtree.SelfJoin, Join: kdtree.Join},
	AlgorithmRTree:   join.Serial(rtree.SelfJoin, rtree.Join),
	AlgorithmRPlus:   join.Serial(rplus.SelfJoin, rplus.Join),
	AlgorithmZOrder:  join.Serial(zorder.SelfJoin, zorder.Join),
	AlgorithmHilbert: join.Serial(hilbert.SelfJoin, hilbert.Join),
	AlgorithmAuto:    {}, // resolved per call in resolveAlgorithm
	AlgorithmGrid:    {Self: grid.SelfJoin, Join: grid.Join},
	AlgorithmEKDB:    {}, // bound in selfRunners / joinRunners: needs per-call Config
}

// toInternal converts public options to the internal contract.
func (o Options) toInternal(c *stats.Counters, ph *obsv.Phases) join.Options {
	return join.Options{
		Metric:   o.Metric.internal(),
		Eps:      o.Eps,
		Counters: c,
		Phases:   ph,
		Workers:  max(o.Workers, 1),
	}
}

// runners is one planned join, bound to its inputs and options: run calls
// newSink once per worker it spreads over. keys is the key kind of the
// ε-kdB tree behind it ("" for every other engine).
type runners struct {
	run  func(newSink func() pairs.Sink)
	keys string
}

// treeConfig maps the public options to a one-shot build's tree config.
func (o Options) treeConfig() core.Config {
	return core.Config{Metric: o.Metric.internal()}
}

// selfRunners binds algo's self-join to ds. The ε-kdB tree is built here
// (and charged to the build phase) rather than behind the registry's
// shared signature, so its key kind reaches the runners.
func selfRunners(algo Algorithm, ds *dataset.Dataset, iopt join.Options, opt Options) runners {
	if algo == AlgorithmEKDB {
		start := time.Now()
		t := core.Build(ds, opt.Eps, opt.treeConfig())
		iopt.Timing().AddBuild(time.Since(start))
		return treeRunners(t, iopt)
	}
	self := registry[algo].Self
	return runners{run: func(newSink func() pairs.Sink) { self(ds, iopt, newSink) }}
}

// treeRunners binds a built ε-kdB tree's self-join.
func treeRunners(t *core.Tree, iopt join.Options) runners {
	return runners{
		run:  func(newSink func() pairs.Sink) { t.SelfJoinParallel(iopt, newSink) },
		keys: t.Keys(),
	}
}

// joinRunners binds algo's two-set join to a and b; the ε-kdB trees are
// built here for the reason selfRunners gives.
func joinRunners(algo Algorithm, a, b *dataset.Dataset, iopt join.Options, opt Options) runners {
	if algo == AlgorithmEKDB {
		start := time.Now()
		ta, tb := core.BuildPair(a, b, opt.Eps, opt.treeConfig())
		iopt.Timing().AddBuild(time.Since(start))
		return runners{
			run:  func(newSink func() pairs.Sink) { core.JoinTreesParallel(ta, tb, iopt, newSink) },
			keys: ta.Keys(),
		}
	}
	two := registry[algo].Join
	return runners{run: func(newSink func() pairs.Sink) { two(a, b, iopt, newSink) }}
}

// count runs the join into a shared counter: no pair is buffered.
func (r runners) count() int64 {
	var sink pairs.Counter
	r.run(func() pairs.Sink { return &sink })
	return sink.N()
}

// collect runs the join and returns its pairs in lexicographic order
// (canonical: self-join pairs, stored I < J). What happens after the last
// pair was emitted — merging the workers' shards, the sort, the conversion
// to the public pair type — is charged to ph as the collect phase.
func (r runners) collect(canonical bool, ph *obsv.Phases) []Pair {
	sh := pairs.NewSharded(canonical)
	r.run(sh.Handle)
	start := time.Now()
	ps := sh.Merged()
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{I: int(p.I), J: int(p.J)}
	}
	ph.AddCollect(time.Since(start))
	return out
}

// each streams the join's pairs to deliver, which is never called
// concurrently: with more than one worker, every worker's pairs funnel
// through one delivery goroutine; with one, the join calls deliver itself.
func (r runners) each(workers int, deliver func(i, j int)) {
	if workers > 1 {
		f := pairs.NewFunnel(deliver)
		r.run(f.Handle)
		f.Close()
		return
	}
	r.run(func() pairs.Sink { return pairs.Func(deliver) })
}

// result runs the join in the mode opt asks for — collecting or counting
// only — and closes the run (see finish).
func (r runners) result(canonical bool, opt Options, sp *trace.Span, p planned, iopt join.Options, watch stats.Stopwatch) *Result {
	res := &Result{}
	var n int64
	if opt.collect() {
		res.Pairs = r.collect(canonical, iopt.Phases)
		n = int64(len(res.Pairs))
	} else {
		n = r.count()
	}
	res.Stats = r.finish(opt, sp, p, iopt, n, watch)
	return res
}

// finish closes a run of these runners (Options.finish), adding to the
// plan what only they know: the key kind of the tree they built.
func (r runners) finish(opt Options, sp *trace.Span, p planned, iopt join.Options, n int64, watch stats.Stopwatch) Stats {
	p.keys = r.keys
	return opt.finish(sp, p, iopt, n, watch)
}

// finish closes a run that produced n pairs: it stops the watch, fills
// o.Stats (when set) with the run's report, seals the entry point's span
// and returns the summary every mode shares.
func (o Options) finish(sp *trace.Span, p planned, iopt join.Options, n int64, watch stats.Stopwatch) Stats {
	elapsed := watch.Elapsed()
	snap, ph := iopt.Counters.Snapshot(), iopt.Phases
	if o.Stats != nil {
		*o.Stats = JoinStats{
			Algorithm:      p.algo,
			Keys:           p.keys,
			DistComps:      snap.DistComps,
			Candidates:     snap.Candidates,
			NodeVisits:     snap.NodeVisits,
			PairsEmitted:   n,
			EstimatedPairs: p.est,
			BuildTime:      ph.Build(),
			ProbeTime:      ph.Probe(),
			CollectTime:    ph.Collect(),
			Elapsed:        elapsed,
		}
	}
	finishSpan(sp, p, iopt.Workers, snap, ph, n)
	return Stats{
		Candidates: snap.Candidates,
		DistComps:  snap.DistComps,
		Results:    n,
		NodeVisits: snap.NodeVisits,
		Elapsed:    elapsed,
	}
}

// finishSpan seals one entry point's span: the resolved algorithm, the
// ε-kdB tree's key kind, the worker count the run was given and the run's
// work counters are recorded, and the run's phase totals become
// "build", "probe" and "collect" child intervals. The intervals reuse the
// obsv.Phases seam — those timers were already charged, so nothing is
// instrumented twice. For parallel runs the later intervals' offsets are
// approximate (phases can overlap across goroutines); the durations are
// exact.
func finishSpan(sp *trace.Span, p planned, workers int, snap stats.Snapshot, ph *obsv.Phases, pairsEmitted int64) {
	if sp == nil {
		return
	}
	sp.SetAttr("algorithm", string(p.algo))
	if p.keys != "" {
		sp.SetAttr("keys", p.keys)
	}
	sp.SetAttr("workers", strconv.Itoa(workers))
	sp.AddCounter("dist_comps", snap.DistComps)
	sp.AddCounter("candidates", snap.Candidates)
	sp.AddCounter("node_visits", snap.NodeVisits)
	sp.AddCounter("pairs_emitted", pairsEmitted)
	at := sp.StartTime()
	for _, phase := range []struct {
		name string
		d    time.Duration
	}{{"build", ph.Build()}, {"probe", ph.Probe()}, {"collect", ph.Collect()}} {
		if phase.d > 0 {
			sp.ChildInterval(phase.name, at, phase.d)
		}
		at = at.Add(phase.d)
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
	plan := resolve(opt, sp, func() Plan { return planSelf(ds, opt.Metric, opt.Eps, false) })
	watch := stats.Start()
	r := selfRunners(plan.algo, ds.internal(), iopt, opt)
	return r.result(true, opt, sp, plan, iopt, watch), nil
}

// Join reports every pair (i, j) with dist(a[i], b[j]) ≤ opt.Eps. The two
// datasets must share one dimensionality (an error otherwise). Workers > 1
// spreads the join over that many goroutines when the algorithm can (ekdb,
// grid, kdtree); the result is identical to a one-worker run.
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
	plan := resolve(opt, sp, func() Plan { return planJoin(a, b, opt.Metric, opt.Eps, false) })
	watch := stats.Start()
	r := joinRunners(plan.algo, a.internal(), b.internal(), iopt, opt)
	return r.result(false, opt, sp, plan, iopt, watch), nil
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
// funnels every worker's pairs through one delivery goroutine. The
// returned Stats match a collecting run's.
func SelfJoinEach(ds *Dataset, opt Options, fn func(i, j int)) (Stats, error) {
	if err := opt.validate(); err != nil {
		return Stats{}, err
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	sp := opt.Trace.Child("simjoin.SelfJoinEach")
	plan := resolve(opt, sp, func() Plan { return planSelf(ds, opt.Metric, opt.Eps, false) })
	watch := stats.Start()
	var n int64
	r := selfRunners(plan.algo, ds.internal(), iopt, opt)
	r.each(iopt.Workers, func(i, j int) {
		if j < i {
			i, j = j, i
		}
		n++
		fn(i, j)
	})
	return r.finish(opt, sp, plan, iopt, n, watch), nil
}

// JoinEach streams every (a-index, b-index) pair within opt.Eps to fn as
// it is found, with the same callback contract as SelfJoinEach:
// single-goroutine delivery, unspecified order, flat memory.
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
	plan := resolve(opt, sp, func() Plan { return planJoin(a, b, opt.Metric, opt.Eps, false) })
	watch := stats.Start()
	var n int64
	r := joinRunners(plan.algo, a.internal(), b.internal(), iopt, opt)
	r.each(iopt.Workers, func(i, j int) {
		n++
		fn(i, j)
	})
	return r.finish(opt, sp, plan, iopt, n, watch), nil
}

// planned is the outcome of pre-run planning: the concrete algorithm
// that will run plus the result-size estimate that drove the choice
// (est is -1 when the run decided without estimating — an explicit
// algorithm was requested, or Auto short-circuited on a trivial input).
type planned struct {
	algo Algorithm
	est  int64
	// keys is the key kind of the ε-kdB tree the run built ("" for other
	// engines): known only once the runners exist (runners.finish).
	keys string
}

// resolve maps the empty default and AlgorithmAuto to a concrete
// algorithm. Auto asks plan (planSelf or planJoin, estimating only when
// the chooser needs it) and records the decision as an "estimate" child
// span of sp.
func resolve(opt Options, sp *trace.Span, plan func() Plan) planned {
	switch opt.Algorithm {
	case "":
		return planned{algo: AlgorithmEKDB, est: -1}
	case AlgorithmAuto:
		esp := sp.Child("estimate")
		p := plan()
		esp.SetAttr("algorithm", string(p.Algorithm))
		esp.AddCounter("predicted_pairs", p.EstimatedPairs)
		esp.End()
		return planned{algo: p.Algorithm, est: p.EstimatedPairs}
	default:
		return planned{algo: opt.Algorithm, est: -1}
	}
}

// DefaultWorkers returns one worker per CPU (GOMAXPROCS): the worker
// count KNNJoin uses when asked for ≤ 0, and simjoind's served joins when
// a request names none. A library join's Options.Workers has no such
// default; ≤ 1 runs it on the caller's goroutine.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
