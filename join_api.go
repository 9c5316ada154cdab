package simjoin

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"simjoin/internal/brute"
	"simjoin/internal/core"
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
	AlgorithmAuto:    {}, // resolved per call in resolve
	AlgorithmGrid:    {Self: grid.SelfJoin, Join: grid.Join},
	AlgorithmEKDB:    {}, // bound in inputs.bind: needs per-call Config
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

// inputs is what one entry point joins: a with itself (self, b unused) or
// a with b.
type inputs struct {
	a, b *Dataset
	self bool
}

// plan is the planner's report for these inputs (asked only under Auto).
func (in inputs) plan(opt Options) Plan {
	if in.self {
		return planSelf(in.a, opt.Metric, opt.Eps, false)
	}
	return planJoin(in.a, in.b, opt.Metric, opt.Eps, false)
}

// bind binds algo's engine to the inputs. The ε-kdB trees are built here
// (and charged to the build phase) rather than behind the registry's
// shared signature, so their key kind reaches the runners.
func (in inputs) bind(algo Algorithm, iopt join.Options, opt Options) runners {
	a := in.a.internal()
	if algo != AlgorithmEKDB {
		e := registry[algo]
		if in.self {
			return runners{run: func(newSink func() pairs.Sink) { e.Self(a, iopt, newSink) }}
		}
		b := in.b.internal()
		return runners{run: func(newSink func() pairs.Sink) { e.Join(a, b, iopt, newSink) }}
	}
	start := time.Now()
	defer func() { iopt.Timing().AddBuild(time.Since(start)) }()
	if in.self {
		t := core.Build(a, opt.Eps, opt.treeConfig())
		return runners{run: func(newSink func() pairs.Sink) { t.SelfJoinParallel(iopt, newSink) }, keys: t.Keys()}
	}
	ta, tb := core.BuildPair(a, in.b.internal(), opt.Eps, opt.treeConfig())
	return runners{run: func(newSink func() pairs.Sink) { core.JoinTreesParallel(ta, tb, iopt, newSink) }, keys: ta.Keys()}
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

// run is the one body of every entry point: it validates, resolves the
// algorithm, binds the engine to in, lets pump drive it — collecting,
// counting or streaming the pairs, and returning how many there were — and
// returns the run's report, copied to opt.Stats when set. The entry
// point's span is named span.
func run(span string, in inputs, opt Options, pump func(r runners, iopt join.Options) int64) (JoinStats, error) {
	if err := opt.validate(); err != nil {
		return JoinStats{}, err
	}
	if !in.self {
		if err := checkJoinDims(in.a, in.b); err != nil {
			return JoinStats{}, err
		}
	}
	var counters stats.Counters
	var phases obsv.Phases
	iopt := opt.toInternal(&counters, &phases)
	sp := opt.Trace.Child(span)
	algo, est := resolve(opt, sp, func() Plan { return in.plan(opt) })
	watch := stats.Start()
	r := in.bind(algo, iopt, opt)
	n := pump(r, iopt)
	elapsed := watch.Elapsed()
	snap := counters.Snapshot()
	st := JoinStats{
		Algorithm:      algo,
		Keys:           r.keys,
		DistComps:      snap.DistComps,
		Candidates:     snap.Candidates,
		NodeVisits:     snap.NodeVisits,
		PairsEmitted:   n,
		EstimatedPairs: est,
		BuildTime:      phases.Build(),
		ProbeTime:      phases.Probe(),
		CollectTime:    phases.Collect(),
		Elapsed:        elapsed,
	}
	if opt.Stats != nil {
		*opt.Stats = st
	}
	finishSpan(sp, st, iopt.Workers)
	return st, nil
}

// finishSpan seals one entry point's span: the resolved algorithm, the
// ε-kdB tree's key kind, the worker count the run was given and the run's
// work counters are recorded, and the run's phase totals become
// "build", "probe" and "collect" child intervals. The intervals reuse the
// obsv.Phases seam — those timers were already charged, so nothing is
// instrumented twice. For parallel runs the later intervals' offsets are
// approximate (phases can overlap across goroutines); the durations are
// exact.
func finishSpan(sp *trace.Span, st JoinStats, workers int) {
	if sp == nil {
		return
	}
	sp.SetAttr("algorithm", string(st.Algorithm))
	if st.Keys != "" {
		sp.SetAttr("keys", st.Keys)
	}
	sp.SetAttr("workers", strconv.Itoa(workers))
	sp.AddCounter("dist_comps", st.DistComps)
	sp.AddCounter("candidates", st.Candidates)
	sp.AddCounter("node_visits", st.NodeVisits)
	sp.AddCounter("pairs_emitted", st.PairsEmitted)
	at := sp.StartTime()
	for _, phase := range []struct {
		name string
		d    time.Duration
	}{{"build", st.BuildTime}, {"probe", st.ProbeTime}, {"collect", st.CollectTime}} {
		if phase.d > 0 {
			sp.ChildInterval(phase.name, at, phase.d)
		}
		at = at.Add(phase.d)
	}
	sp.End()
}

// result runs SelfJoin or Join into a Result: the pairs, or only their
// count when opt.CollectPairs is off.
func result(span string, in inputs, opt Options) (*Result, error) {
	res := &Result{}
	st, err := run(span, in, opt, func(r runners, iopt join.Options) int64 {
		if !opt.collect() {
			return r.count()
		}
		res.Pairs = r.collect(in.self, iopt.Phases)
		return int64(len(res.Pairs))
	})
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}

// SelfJoin reports every unordered pair of points in ds within opt.Eps,
// each exactly once with I < J.
func SelfJoin(ds *Dataset, opt Options) (*Result, error) {
	return result("simjoin.SelfJoin", inputs{a: ds, self: true}, opt)
}

// Join reports every pair (i, j) with dist(a[i], b[j]) ≤ opt.Eps. The two
// datasets must share one dimensionality (an error otherwise). Workers > 1
// spreads the join over that many goroutines when the algorithm can (ekdb,
// grid, kdtree); the result is identical to a one-worker run.
func Join(a, b *Dataset, opt Options) (*Result, error) {
	return result("simjoin.Join", inputs{a: a, b: b}, opt)
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
// returned report is a collecting run's, CollectTime aside (zero: the
// pairs are never held).
func SelfJoinEach(ds *Dataset, opt Options, fn func(i, j int)) (JoinStats, error) {
	return run("simjoin.SelfJoinEach", inputs{a: ds, self: true}, opt, func(r runners, iopt join.Options) int64 {
		var n int64
		r.each(iopt.Workers, func(i, j int) {
			if j < i {
				i, j = j, i
			}
			n++
			fn(i, j)
		})
		return n
	})
}

// JoinEach streams every (a-index, b-index) pair within opt.Eps to fn as
// it is found, with the same callback contract as SelfJoinEach:
// single-goroutine delivery, unspecified order, flat memory.
func JoinEach(a, b *Dataset, opt Options, fn func(i, j int)) (JoinStats, error) {
	return run("simjoin.JoinEach", inputs{a: a, b: b}, opt, func(r runners, iopt join.Options) int64 {
		var n int64
		r.each(iopt.Workers, func(i, j int) {
			n++
			fn(i, j)
		})
		return n
	})
}

// resolve maps the empty default and AlgorithmAuto to a concrete
// algorithm, with the result-size estimate that drove the choice (est is
// -1 when none did: an explicit algorithm was requested, or Auto
// short-circuited on a trivial input). Auto asks plan (estimating only
// when the chooser needs it) and records the decision as an "estimate"
// child span of sp.
func resolve(opt Options, sp *trace.Span, plan func() Plan) (algo Algorithm, est int64) {
	switch opt.Algorithm {
	case "":
		return AlgorithmEKDB, -1
	case AlgorithmAuto:
		esp := sp.Child("estimate")
		p := plan()
		esp.SetAttr("algorithm", string(p.Algorithm))
		esp.AddCounter("predicted_pairs", p.EstimatedPairs)
		esp.End()
		return p.Algorithm, p.EstimatedPairs
	default:
		return opt.Algorithm, -1
	}
}

// DefaultWorkers returns one worker per CPU (GOMAXPROCS): the worker
// count KNNJoin uses when asked for ≤ 0, and simjoind's served joins when
// a request names none. A library join's Options.Workers has no such
// default; ≤ 1 runs it on the caller's goroutine.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
