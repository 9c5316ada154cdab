package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"simjoin"
	"simjoin/internal/core"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// joinSpec sizes one in-process workload. The sizes are frozen: see
// README.md, "Sizes".
type joinSpec struct {
	dims, n int
	eps     float64
	// nA, nB size the two-set side op; zero makes the side op the
	// streaming self-join over the primary's own data.
	nA, nB int
}

var joinSpecs = map[string]joinSpec{
	"join_pairs":   {dims: 8, n: 12000, eps: 0.11},
	"join_highdim": {dims: 64, n: 3600, eps: 0.48, nA: 2400, nB: 1800},
}

const (
	joinSets      = 4 // datasets the ops rotate over
	joinSideEvery = 5 // every 5th op is the side op
)

func (s joinSpec) smoke() joinSpec {
	s.n /= 12
	s.nA /= 12
	s.nB /= 12
	return s
}

// joinSet is one dataset with its expected answers, and the library
// handles set-up builds over it.
type joinSet struct {
	pts, a, b    [][]float64
	ref, sideRef pairSum
	ds, da, db   *simjoin.Dataset
}

type joinWorkload struct {
	spec joinSpec
	sets []*joinSet
	t    *tally
}

func runJoin(cfg runConfig, name string) (*outcome, error) {
	spec := joinSpecs[name]
	if cfg.smoke {
		spec = spec.smoke()
	}
	w := &joinWorkload{spec: spec, t: &tally{}}
	if err := w.generate(cfg.seed); err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}}

	var setups, rss []float64
	var phases []phase
	reps, slice := cfg.slices()
	for i := 0; i < reps; i++ {
		resetSelfHWM()
		start := time.Now()
		w.setUp()
		setups = append(setups, time.Since(start).Seconds())
		for k := 0; k < joinSideEvery; k++ { // discarded warm-up: one full cycle
			w.op(k, nil)
		}
		phases = append(phases, w.loop(cfg, slice))
		rss = append(rss, selfHWM())
	}
	out.values["setup_s"] = lowest(setups)
	if !cfg.trace {
		out.endToEnd(phases, rss)
	} else {
		out.traceDiag(phases[0])
		w.layers(cfg, out.values, phases[0].prim.p(50))
	}
	out.attempted, out.failed = w.t.counts()
	out.notes = w.t.notes
	return out, nil
}

// generate makes the inputs from the seed and fixes the expected answers.
// None of it counts as set-up: a user brings their data and has no oracle.
func (w *joinWorkload) generate(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < joinSets; k++ {
		b := newBlobs(r, w.spec.dims)
		s := &joinSet{pts: b.points(r, w.spec.n)}
		var err error
		if s.ref, err = joinReference(r, s.pts, nil, w.spec.eps); err != nil {
			return err
		}
		s.sideRef = s.ref
		if w.spec.nA > 0 {
			s.a, s.b = s.pts[:w.spec.nA], b.points(r, w.spec.nB)
			if s.sideRef, err = joinReference(r, s.a, s.b, w.spec.eps); err != nil {
				return err
			}
		}
		w.sets = append(w.sets, s)
	}
	return nil
}

// setUp is what a library caller does before the first join: wrap the
// points, build the size sketch, and run one op.
func (w *joinWorkload) setUp() {
	for _, s := range w.sets {
		s.ds = simjoin.FromPoints(s.pts)
		s.ds.EnableSketch()
		if s.a != nil {
			s.da, s.db = simjoin.FromPoints(s.a), simjoin.FromPoints(s.b)
			s.da.EnableSketch()
			s.db.EnableSketch()
		}
	}
	w.op(0, nil)
}

func (w *joinWorkload) options() simjoin.Options {
	return simjoin.Options{Eps: w.spec.eps, Workers: 1}
}

// loop runs ops back to back for d of measured time; answer checking is
// not part of that time.
func (w *joinWorkload) loop(cfg runConfig, d time.Duration) phase {
	var ph phase
	start := time.Now()
	var checking time.Duration
	for k := 0; time.Since(start)-checking < d; k++ {
		rec := cfg.recFor(k)
		side, took, check := w.op(k, rec)
		checking += check
		// An op's repeats are its runs over the same dataset.
		if side {
			ph.sideOp(k%joinSets, took)
		} else {
			ph.primary(cfg, rec, k%joinSets, took)
		}
	}
	ph.wall = time.Since(start) - checking
	return ph
}

// op runs the k-th op of the schedule and checks its answer. It reports
// whether it was the side op, its latency, and the time the check took.
func (w *joinWorkload) op(k int, rec *recorder) (side bool, took, checking time.Duration) {
	s := w.sets[k%joinSets]
	opt := w.options()
	// run is the timed call; the sum it returns is worked out afterwards.
	var (
		name string
		want pairSum
		run  func() (sum func() pairSum, err error)
	)
	side = k%joinSideEvery == joinSideEvery-1
	switch {
	case !side:
		name, want = "simjoin.SelfJoin", s.ref
		run = func() (func() pairSum, error) {
			res, err := simjoin.SelfJoin(s.ds, opt)
			return func() pairSum { return sumPairs(res.Pairs, true) }, err
		}
	case s.a == nil:
		name, want = "simjoin.SelfJoinEach", s.sideRef
		run = func() (func() pairSum, error) {
			var got pairSum
			_, err := simjoin.SelfJoinEach(s.ds, opt, got.addSelf)
			return func() pairSum { return got }, err
		}
	default:
		name, want = "simjoin.Join", s.sideRef
		run = func() (func() pairSum, error) {
			res, err := simjoin.Join(s.da, s.db, opt)
			return func() pairSum { return sumPairs(res.Pairs, false) }, err
		}
	}
	root := rec.start("op", -1, k)
	call := rec.start(name, root, k)
	start := time.Now()
	sum, err := run()
	took = time.Since(start)
	rec.end(call)

	check := rec.start("verify", root, k)
	start = time.Now()
	switch {
	case err != nil:
		w.t.fail("%s op %d: %v", name, k, err)
	case sum() != want:
		w.t.fail("%s op %d: pair set %+v, want %+v", name, k, sum(), want)
	default:
		w.t.ok()
	}
	checking = time.Since(start)
	rec.end(check)
	rec.end(root)
	return side, took, checking
}

func sumPairs(ps []simjoin.Pair, self bool) pairSum {
	var s pairSum
	for _, p := range ps {
		if self {
			s.addSelf(p.I, p.J)
		} else {
			s.add(p.I, p.J)
		}
	}
	return s
}

// kernelBlocks and kernelBlockLen shape the vec probe: per round, this
// many seeded index blocks of this length go through SelfSweepFlat.
const (
	kernelBlocks   = 32
	kernelBlockLen = 256
)

// engineTimes times the public self-join and, from outside, the layers
// under it: index build, probe into a counting sink, and what collecting
// and sorting the pairs adds.
type engineTimes struct {
	public, build, probe, collect          latencies
	distComps, candidates, visits, emitted []float64
	allocBytes, allocs, gcs                float64
}

// probe is one layer-probe round: its calls are timed as child spans of
// root.
type probe struct {
	rec      *recorder
	root, op int
}

func (p probe) timed(into *latencies, name string, f func()) {
	id := p.rec.start(name, p.root, p.op)
	start := time.Now()
	f()
	into.add(time.Since(start))
	p.rec.end(id)
}

// round runs every timed call once over ds.
func (e *engineTimes) round(p probe, ds *simjoin.Dataset, opt simjoin.Options) {
	timed := p.timed
	var st simjoin.JoinStats
	opt.Stats = &st
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	timed(&e.public, "simjoin.SelfJoin", func() { _, _ = simjoin.SelfJoin(ds, opt) })
	runtime.ReadMemStats(&after)
	e.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	e.allocs += float64(after.Mallocs - before.Mallocs)
	e.gcs += float64(after.NumGC - before.NumGC)
	e.distComps = append(e.distComps, float64(st.DistComps))
	e.candidates = append(e.candidates, float64(st.Candidates))
	e.visits = append(e.visits, float64(st.NodeVisits))
	e.emitted = append(e.emitted, float64(st.PairsEmitted))

	iopt := join.Options{Metric: vec.L2, Eps: opt.Eps, Workers: 1}
	var tree *core.Tree
	timed(&e.build, "core.Build", func() { tree = core.Build(ds.Internal(), opt.Eps, core.Config{}) })
	timed(&e.probe, "core.SelfJoin/count", func() { tree.SelfJoin(iopt, &pairs.Counter{}) })
	timed(&e.collect, "core.SelfJoin/collect", func() {
		col := &pairs.Collector{Canonical: true}
		tree.SelfJoin(iopt, col)
		col.Sorted()
	})
}

// fill derives the engine's per-layer values. The collect and API costs
// are differences of runs over the same set, so they are differenced
// round by round and the median taken last: that cancels what the sets'
// sizes and the machine's drift add.
func (e *engineTimes) fill(v map[string]float64) {
	var collectExtra, overhead latencies
	for i := range e.public {
		extra := e.collect[i] - e.probe[i]
		collectExtra = append(collectExtra, extra)
		overhead = append(overhead, e.public[i]-e.build[i]-e.probe[i]-extra)
	}
	rounds := float64(len(e.public))
	v["core.build_ms"] = e.build.p(50)
	v["core.probe_ms"] = e.probe.p(50)
	v["pairs.collect_ms"] = collectExtra.p(50)
	v["simjoin.api_overhead_ms"] = overhead.p(50)
	v["core.dist_comps"] = median(e.distComps)
	v["core.candidates"] = median(e.candidates)
	v["core.node_visits"] = median(e.visits)
	v["pairs.per_op"] = median(e.emitted)
	v["core.filter_ratio"] = ratio(median(e.emitted), median(e.candidates))
	v["proc.alloc_mb_per_op"] = e.allocBytes / rounds / (1 << 20)
	v["proc.allocs_per_op"] = e.allocs / rounds
	v["proc.gc_cycles"] = e.gcs / rounds
}

// layers times each layer from outside, on the primary op's own input,
// and fills the per-layer values. opP50 is the traced run's op_p50_ms.
func (w *joinWorkload) layers(cfg runConfig, v map[string]float64, opP50 float64) {
	eps := w.spec.eps
	r := rand.New(rand.NewSource(cfg.seed))
	var (
		engine                 engineTimes
		sketch, plan, parallel latencies
		kernelNS, kernelComps  float64
	)
	deadline := time.Now().Add(cfg.duration(0.4))
	for round := 0; round < joinSets || time.Now().Before(deadline); round++ {
		s := w.sets[round%joinSets]
		op := -1 - round // layer probes are not ops of the schedule
		root := cfg.rec.start("layers", -1, op)
		p := probe{cfg.rec, root, op}
		engine.round(p, s.ds, w.options())

		ids := s.ds.Internal()
		flat := ids.FlatView()
		block := make([]int32, kernelBlockLen)
		id := cfg.rec.start("vec.SelfSweepFlat", root, op)
		for b := 0; b < kernelBlocks; b++ {
			for i := range block {
				block[i] = int32(r.Intn(ids.Len()))
			}
			sort.Slice(block, func(i, j int) bool { return flat.At(int(block[i]))[0] < flat.At(int(block[j]))[0] })
			start := time.Now()
			cand, _ := vec.SelfSweepFlat(vec.L2, flat, block, 0, eps, vec.Threshold(vec.L2, eps), func(i, j int32) {})
			kernelNS += float64(time.Since(start))
			kernelComps += float64(cand)
		}
		cfg.rec.end(id)

		p.timed(&sketch, "sketch.build", func() { simjoin.SketchOf(s.ds) })
		p.timed(&plan, "sketch.plan", func() { simjoin.PlanSelfJoin(s.ds, simjoin.L2, eps) })
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			opt := w.options()
			opt.Workers = procs
			p.timed(&parallel, "simjoin.SelfJoin/parallel", func() { _, _ = simjoin.SelfJoin(s.ds, opt) })
		}
		cfg.rec.end(root)
	}

	engine.fill(v)
	// At GOMAXPROCS 1 a "parallel" run is a serial run with extra
	// goroutines; the speed-up is then not measured and reads 0.
	if len(parallel) > 0 {
		v["core.parallel_speedup"] = ratio(engine.public.p(50), parallel.p(50))
	}
	v["vec.ns_per_comp"] = ratio(kernelNS, kernelComps)
	v["vec.kernel_share"] = ratio(v["vec.ns_per_comp"]*v["core.dist_comps"]/1e6, opP50)
	v["sketch.build_ms"] = sketch.p(50)
	v["sketch.plan_us"] = plan.p(50) * 1000
}
