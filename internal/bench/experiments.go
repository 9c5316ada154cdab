package bench

import (
	"fmt"

	"simjoin/internal/core"
	"simjoin/internal/dft"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// Experiment binds an experiment id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(quick bool) *stats.Table
}

// All lists every experiment of the evaluation in report order.
func All() []Experiment {
	return []Experiment{
		{"f1", "F1: join time vs cardinality (d=8, uniform, ε=0.1)", F1ScaleN},
		{"f2", "F2: join time vs dimensionality (constant selectivity)", F2Dimensionality},
		{"f3", "F3: join time vs ε (N=16k, d=8, uniform)", F3Epsilon},
		{"f4", "F4: ε-kdB leaf-threshold ablation", F4LeafThreshold},
		{"f5", "F5: candidate ratio vs dimensionality", F5Candidates},
		{"f6", "F6: data-distribution sensitivity", F6Distributions},
		{"f7", "F7: external join page I/O vs buffer budget", F7External},
		{"f8", "F8: time-series filter-and-refine vs DFT coefficients", F8TimeSeries},
		{"t1", "T1: algorithm summary (self- and two-set joins)", T1Summary},
		{"t2", "T2: ε-kdB build/join breakdown and configuration", T2Breakdown},
	}
}

// F1ScaleN sweeps cardinality with everything else fixed. Expected shape:
// brute grows quadratically and wins only at the smallest N; ε-kdB and grid
// stay near-linear.
func F1ScaleN(quick bool) *stats.Table {
	sizes := []int{2500, 5000, 10000, 20000, 40000}
	if quick {
		sizes = []int{500, 1000, 2000}
	}
	tb := stats.NewTable("F1 join time vs N (ms)", append([]string{"n"}, AlgoNames...)...)
	for _, n := range sizes {
		ds := Uniform(n, 8, 0xF1)
		row := []any{n}
		for _, algo := range AlgoNames {
			r := RunSelf(algo, ds, 0.1)
			row = append(row, ms(r.Elapsed))
		}
		tb.AddRow(row...)
	}
	return tb
}

// F2Dimensionality sweeps dimensionality with ε calibrated per d so the
// output size stays roughly constant. Clustered data keeps the calibrated ε
// well below the data extent at every d — on uniform data ε would have to
// approach the cube diagonal, a regime where every method degenerates
// identically (the curse of dimensionality; EXPERIMENTS.md discusses it).
// Expected shape: the SAM baselines (k-d tree, R-tree) degrade fastest;
// ε-kdB stays flat longest.
func F2Dimensionality(quick bool) *stats.Table {
	dims := []int{2, 4, 8, 12, 16, 20, 24, 28}
	n := 16000
	if quick {
		dims = []int{2, 6, 12}
		n = 2500
	}
	algos := []string{"sweep", "grid", "kdtree", "rtree", "rplus", "zorder", "ekdb"}
	tb := stats.NewTable("F2 join time vs dimensionality (ms)", append([]string{"d", "eps", "pairs"}, algos...)...)
	for _, d := range dims {
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: 0xF2, Dist: synth.GaussianClusters, Clusters: 20})
		eps := CalibrateEps(ds, vec.L2, int64(2*n))
		row := []any{d, eps}
		var pairsN int64
		results := make([]any, 0, len(algos))
		for _, algo := range algos {
			r := RunSelf(algo, ds, eps)
			pairsN = r.PairsEmitted
			results = append(results, ms(r.Elapsed))
		}
		row = append(row, pairsN)
		row = append(row, results...)
		tb.AddRow(row...)
	}
	return tb
}

// F3Epsilon sweeps the threshold. Expected shape: every algorithm slows as
// ε (and output) grows; ε-kdB's advantage narrows because fewer, fatter
// stripes prune less.
func F3Epsilon(quick bool) *stats.Table {
	n := 16000
	if quick {
		n = 2500
	}
	epss := []float64{0.02, 0.04, 0.08, 0.12, 0.16, 0.24}
	algos := []string{"sweep", "grid", "kdtree", "rtree", "rplus", "zorder", "ekdb"}
	tb := stats.NewTable("F3 join time vs eps (ms)", append([]string{"eps", "pairs"}, algos...)...)
	// Clustered data keeps every ε in the sweep selective but non-empty.
	ds := synth.Generate(synth.Config{N: n, Dims: 8, Seed: 0xF3, Dist: synth.GaussianClusters})
	for _, eps := range epss {
		row := []any{eps}
		var pairsN int64
		results := make([]any, 0, len(algos))
		for _, algo := range algos {
			r := RunSelf(algo, ds, eps)
			pairsN = r.PairsEmitted
			results = append(results, ms(r.Elapsed))
		}
		row = append(row, pairsN)
		row = append(row, results...)
		tb.AddRow(row...)
	}
	return tb
}

// F4LeafThreshold ablates the ε-kdB leaf capacity, separating build and
// join time. Expected shape: U-shaped total — tiny leaves pay in build
// depth and recursion, huge leaves degenerate to quadratic leaf work.
func F4LeafThreshold(quick bool) *stats.Table {
	n := 30000
	if quick {
		n = 4000
	}
	ds := Uniform(n, 8, 0xF4)
	tb := stats.NewTable("F4 ε-kdB leaf-threshold ablation",
		"leaf", "build_ms", "join_ms", "total_ms", "nodes", "leaves", "candidates")
	for _, leaf := range []int{4, 16, 64, 256, 1024, 4096} {
		var c stats.Counters
		opt := join.Options{Metric: vec.L2, Eps: 0.1, Counters: &c}
		watch := stats.Start()
		t := core.Build(ds, 0.1, core.Config{LeafThreshold: leaf})
		build := watch.Lap()
		var sink pairs.Counter
		t.SelfJoin(opt, &sink)
		joinTime := watch.Lap()
		tb.AddRow(leaf, ms(build), ms(joinTime), ms(build+joinTime),
			t.Nodes(), t.Leaves(), c.Snapshot().Candidates)
	}
	return tb
}

// F5Candidates reports the filtering power (candidates per result) across
// dimensionality. Expected shape: ε-kdB's ratio stays lowest and flattest;
// grid and R-tree blow up as boxes/cells stop discriminating.
func F5Candidates(quick bool) *stats.Table {
	dims := []int{2, 8, 16, 28}
	n := 8000
	if quick {
		dims = []int{2, 10}
		n = 2000
	}
	algos := []string{"grid", "kdtree", "rtree", "rplus", "zorder", "ekdb"}
	headers := []string{"d", "pairs"}
	for _, a := range algos {
		headers = append(headers, a+"_cand", a+"_ratio")
	}
	tb := stats.NewTable("F5 candidates and candidate ratio vs dimensionality", headers...)
	for _, d := range dims {
		ds := synth.Generate(synth.Config{N: n, Dims: d, Seed: 0xF5, Dist: synth.GaussianClusters, Clusters: 20})
		eps := CalibrateEps(ds, vec.L2, int64(2*n))
		row := []any{d}
		var pairsN int64
		cells := make([]any, 0, 2*len(algos))
		for _, algo := range algos {
			r := RunSelf(algo, ds, eps)
			pairsN = r.PairsEmitted
			ratio := 0.0
			if r.PairsEmitted > 0 {
				ratio = float64(r.Candidates) / float64(r.PairsEmitted)
			}
			cells = append(cells, r.Candidates, ratio)
		}
		row = append(row, pairsN)
		row = append(row, cells...)
		tb.AddRow(row...)
	}
	return tb
}

// F6Distributions compares algorithms across data distributions at a fixed
// ε. Expected shape: skew (zipf) hurts the grid most (hot cells), ε-kdB
// stays robust; correlation collapses the data onto a diagonal where the
// sweep baseline looks better than it deserves.
func F6Distributions(quick bool) *stats.Table {
	n := 16000
	if quick {
		n = 2500
	}
	algos := []string{"sweep", "grid", "kdtree", "rtree", "rplus", "zorder", "ekdb"}
	tb := stats.NewTable("F6 join time by distribution (ms)", append([]string{"dist", "pairs"}, algos...)...)
	for _, dist := range synth.AllDistributions() {
		ds := synth.Generate(synth.Config{N: n, Dims: 8, Seed: 0xF6, Dist: dist})
		row := []any{dist.String()}
		var pairsN int64
		results := make([]any, 0, len(algos))
		for _, algo := range algos {
			r := RunSelf(algo, ds, 0.08)
			pairsN = r.PairsEmitted
			results = append(results, ms(r.Elapsed))
		}
		row = append(row, pairsN)
		row = append(row, results...)
		tb.AddRow(row...)
	}
	return tb
}

// F7External sweeps the buffer-pool budget for the two external
// algorithms. Expected shape: partitioned ε-kdB I/O stays near two scans
// regardless of budget; block-nested-loop reads grow sharply as the pool
// shrinks.
func F7External(quick bool) *stats.Table {
	n := 50000
	pools := []int{8, 16, 32, 64, 128, 256, 1024}
	if quick {
		n = 8000
		pools = []int{4, 16, 64}
	}
	ds := Uniform(n, 4, 0xF7)
	tb := stats.NewTable("F7 external join page I/O vs pool budget (4KiB pages)",
		"pool_pages", "ekdb_reads", "ekdb_writes", "bnl_reads", "bnl_writes", "pairs")
	for _, pool := range pools {
		var cEK stats.Counters
		var sinkEK pairs.Counter
		core.ExternalSelfJoin(ds, join.Options{Metric: vec.L2, Eps: 0.05, Counters: &cEK},
			core.ExternalConfig{PoolPages: pool}, &sinkEK)
		var cBN stats.Counters
		var sinkBN pairs.Counter
		core.ExternalBlockNestedLoopSelfJoin(ds, join.Options{Metric: vec.L2, Eps: 0.05, Counters: &cBN},
			core.ExternalConfig{PoolPages: pool}, &sinkBN)
		if sinkEK.N() != sinkBN.N() {
			panic(fmt.Sprintf("bench: external algorithms disagree: %d vs %d", sinkEK.N(), sinkBN.N()))
		}
		ek, bn := cEK.Snapshot(), cBN.Snapshot()
		tb.AddRow(pool, ek.PageReads, ek.PageWrites, bn.PageReads, bn.PageWrites, sinkEK.N())
	}
	return tb
}

// F8TimeSeries measures the DFT filter-and-refine pipeline of the
// time-series application. Expected shape: the false-positive ratio drops
// steeply over the first few coefficients then flattens; filter-and-refine
// beats joining the raw sequences directly.
func F8TimeSeries(quick bool) *stats.Table {
	n, dup, length := 4000, 100, 128
	if quick {
		n, dup = 600, 30
	}
	const eps = 2.0
	series := synth.SimilarWalkPairs(n, dup, length, 1, 0.05, 0xF8)
	// Mean-normalize every sequence (standard in sequence matching: level
	// offsets are not dissimilarity). This also removes the trivial
	// level-separation a raw-space index would otherwise exploit.
	for _, s := range series {
		var mean float64
		for _, v := range s {
			mean += v
		}
		mean /= float64(len(s))
		for t := range s {
			s[t] -= mean
		}
	}

	// Ground truth and direct baselines on the raw sequences (they are
	// just length-dimensional points).
	raw := synth.SeriesDataset(series)
	truth := RunSelf("ekdb", raw, eps)
	directBrute := RunSelf("brute", raw, eps)
	if directBrute.PairsEmitted != truth.PairsEmitted {
		panic("bench: direct baselines disagree")
	}

	headers := []string{"k", "feat_dims", "candidates", "true_pairs", "fp_ratio", "filter_ms", "refine_ms", "total_ms"}
	tb := stats.NewTable(fmt.Sprintf("F8 DFT filter-and-refine (%d seqs × %d, ε=%g; direct 128-dim join: ekdb %.4g ms, brute %.4g ms, %d pairs)",
		len(series), length, eps, ms(truth.Elapsed), ms(directBrute.Elapsed), truth.PairsEmitted), headers...)
	for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		watch := stats.Start()
		feats := dft.FeatureDataset(series, k)
		col := &pairs.Collector{Canonical: true}
		core.SelfJoin(feats, join.Options{Metric: vec.L2, Eps: eps}, col)
		filter := watch.Lap()
		var confirmed int64
		for _, p := range col.Pairs {
			if dft.SeqDist(series[p.I], series[p.J]) <= eps {
				confirmed++
			}
		}
		refine := watch.Lap()
		if confirmed != truth.PairsEmitted {
			panic(fmt.Sprintf("bench: filter-and-refine lost pairs at k=%d: %d vs %d", k, confirmed, truth.PairsEmitted))
		}
		fp := 0.0
		if len(col.Pairs) > 0 {
			fp = float64(int64(len(col.Pairs))-confirmed) / float64(len(col.Pairs))
		}
		tb.AddRow(k, dft.FeatureDims(k), len(col.Pairs), confirmed, fp, ms(filter), ms(refine), ms(filter+refine))
	}
	return tb
}

// T1Summary is the headline comparison: every algorithm on one clustered
// workload, self-join and two-set join.
func T1Summary(quick bool) *stats.Table {
	n := 16000
	if quick {
		n = 2500
	}
	// Split one generated set in half so the two join sides share cluster
	// structure (independently seeded clusters would share no ε-pairs).
	both := synth.Generate(synth.Config{N: 2 * n, Dims: 8, Seed: 0x71, Dist: synth.GaussianClusters})
	a := both.Head(n)
	b := both.Subset(tailIndexes(n, 2*n))
	tb := stats.NewTable(fmt.Sprintf("T1 algorithm summary (N=%d, d=8, clustered, ε=0.05)", n),
		"algo", "self_ms", "join_ms", "self_candidates", "self_distcomps", "self_pairs", "join_pairs")
	for _, algo := range AlgoNames {
		self := RunSelf(algo, a, 0.05)
		two := RunJoin(algo, a, b, 0.05)
		tb.AddRow(algo, ms(self.Elapsed), ms(two.Elapsed),
			self.Candidates, self.DistComps, self.PairsEmitted, two.PairsEmitted)
	}
	return tb
}

// tailIndexes returns [from, to).
func tailIndexes(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// T2Breakdown opens up the ε-kdB tree: build vs join time, structure size,
// and the biased-split option, per leaf threshold.
func T2Breakdown(quick bool) *stats.Table {
	n := 30000
	if quick {
		n = 4000
	}
	ds := synth.Generate(synth.Config{N: n, Dims: 8, Seed: 0x73, Dist: synth.GaussianClusters})
	tb := stats.NewTable(fmt.Sprintf("T2 ε-kdB internals (N=%d, d=8, clustered, ε=0.05)", n),
		"config", "build_ms", "join_ms", "nodes", "leaves", "max_depth", "mem_kb", "pairs")
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"leaf=16", core.Config{LeafThreshold: 16}},
		{"leaf=64", core.Config{LeafThreshold: 64}},
		{"leaf=256", core.Config{LeafThreshold: 256}},
		{"leaf=64 biased", core.Config{LeafThreshold: 64, BiasedSplit: true}},
		{"leaf=256 biased", core.Config{LeafThreshold: 256, BiasedSplit: true}},
	} {
		watch := stats.Start()
		t := core.Build(ds, 0.05, cfg.c)
		build := watch.Lap()
		var sink pairs.Counter
		t.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.05}, &sink)
		joinTime := watch.Lap()
		tb.AddRow(cfg.name, ms(build), ms(joinTime),
			t.Nodes(), t.Leaves(), t.MaxDepth(), t.MemoryBytes()/1024, sink.N())
	}
	return tb
}
