package bench

import (
	"fmt"
	"sort"

	"simjoin/internal/core"
	"simjoin/internal/grid"
	"simjoin/internal/hilbert"
	"simjoin/internal/join"
	"simjoin/internal/kdtree"
	"simjoin/internal/pairs"
	"simjoin/internal/sketch"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
	"simjoin/internal/zorder"
)

// Extensions lists the experiments that go beyond the reconstructed paper
// figures: ablations and extension features the DESIGN.md inventory calls
// out.
func Extensions() []Experiment {
	return []Experiment{
		{"e1", "E1: k-NN join time vs k (k-d tree vs brute)", E1KNNJoin},
		{"e2", "E2: space-filling-curve ablation (Z-order vs Hilbert)", E2CurveAblation},
		{"e3", "E3: selectivity estimation accuracy vs sample size", E3Estimation},
		{"e4", "E4: multi-ε amortization (build once vs rebuild per ε)", E4MultiEps},
		{"e5", "E5: parallel self-join speedup vs workers", E5Parallel},
	}
}

// E5Parallel measures the stripe-parallel ε-kdB self-join and the
// cell-parallel grid join as the worker count grows; one worker is each
// engine's serial run. Expected shape: near-linear speedup while workers ≤
// cores, flattening beyond; the grid parallelizes slightly better (finer
// task granularity) but from a slower serial base.
func E5Parallel(quick bool) *stats.Table {
	n := 60000
	if quick {
		n = 8000
	}
	ds := synth.Generate(synth.Config{N: n, Dims: 8, Seed: 0xE6, Dist: synth.GaussianClusters})
	const eps = 0.05
	tb := stats.NewTable(fmt.Sprintf("E5 parallel speedup (N=%d, d=8, clustered, ε=%g)", n, eps),
		"workers", "ekdb_ms", "ekdb_speedup", "grid_ms", "grid_speedup")

	tree := core.Build(ds, eps, core.Config{})
	run := func(workers int, self func(join.Options, func() pairs.Sink)) (float64, int64) {
		var sink pairs.Counter
		watch := stats.Start()
		self(join.Options{Metric: vec.L2, Eps: eps, Workers: workers}, func() pairs.Sink { return &sink })
		return ms(watch.Elapsed()), sink.N()
	}
	runEKDB := func(workers int) (float64, int64) { return run(workers, tree.SelfJoinParallel) }
	runGrid := func(workers int) (float64, int64) {
		return run(workers, func(opt join.Options, newSink func() pairs.Sink) { grid.SelfJoin(ds, opt, newSink) })
	}

	ekSerial, ekPairs := runEKDB(1)
	gSerial, gPairs := runGrid(1)
	if ekPairs != gPairs {
		panic("bench: E5 algorithms disagree")
	}
	tb.AddRow(1, ekSerial, 1.0, gSerial, 1.0)
	for _, w := range []int{2, 4, 8} {
		ekMs, _ := runEKDB(w)
		gMs, _ := runGrid(w)
		tb.AddRow(w, ekMs, ekSerial/ekMs, gMs, gSerial/gMs)
	}
	return tb
}

// E4MultiEps measures the build-once-query-many feature: one ε-kdB tree
// built at the largest threshold answers every smaller one, versus
// rebuilding per threshold. Expected shape: the shared tree saves all but
// one build and costs only mildly more per query (its stripes are coarser
// than a purpose-built tree's).
func E4MultiEps(quick bool) *stats.Table {
	n := 20000
	if quick {
		n = 4000
	}
	ds := synth.Generate(synth.Config{N: n, Dims: 8, Seed: 0xE5, Dist: synth.GaussianClusters})
	epss := []float64{0.01, 0.02, 0.04, 0.08}
	buildEps := epss[len(epss)-1]

	watch := stats.Start()
	shared := core.Build(ds, buildEps, core.Config{})
	sharedBuild := watch.Lap()

	tb := stats.NewTable(
		fmt.Sprintf("E4 multi-ε amortization (shared tree built at ε=%g in %.4g ms)", buildEps, ms(sharedBuild)),
		"eps", "shared_join_ms", "rebuild_build_ms", "rebuild_join_ms", "pairs")
	for _, eps := range epss {
		opt := join.Options{Metric: vec.L2, Eps: eps}
		var s1 pairs.Counter
		watch := stats.Start()
		shared.SelfJoin(opt, &s1)
		sharedJoin := watch.Lap()

		fresh := core.Build(ds, eps, core.Config{})
		freshBuild := watch.Lap()
		var s2 pairs.Counter
		fresh.SelfJoin(opt, &s2)
		freshJoin := watch.Lap()
		if s1.N() != s2.N() {
			panic("bench: multi-ε answers disagree")
		}
		tb.AddRow(eps, ms(sharedJoin), ms(freshBuild), ms(freshJoin), s1.N())
	}
	return tb
}

// E1KNNJoin measures the k-NN join (every point of A to its k nearest in
// B) against the brute-force scan baseline. The indexed side is the
// search behind simjoin.KNNJoin — one k-d tree over B with the point-query
// leaf size, one KNN per point of A — on one worker, timed with its
// build. Expected shape: the indexed join wins by orders of magnitude and
// degrades slowly with k.
func E1KNNJoin(quick bool) *stats.Table {
	na, nb := 2000, 20000
	if quick {
		na, nb = 300, 3000
	}
	a := synth.Generate(synth.Config{N: na, Dims: 6, Seed: 0xE1, Dist: synth.GaussianClusters})
	b := synth.Generate(synth.Config{N: nb, Dims: 6, Seed: 0xE2, Dist: synth.GaussianClusters})
	tb := stats.NewTable("E1 k-NN join time vs k (ms)",
		"k", "kdtree_ms", "kdtree_distcomps", "brute_ms", "speedup")
	for _, k := range []int{1, 5, 10, 50} {
		var c stats.Counters
		watch := stats.Start()
		tree := kdtree.Build(b, kdtree.NeighborLeafSize)
		rows := make([][]join.Neighbor, a.Len())
		for i := range rows {
			rows[i] = tree.KNN(a.Point(i), k, vec.L2, &c)
		}
		indexed := watch.Lap()
		// Brute baseline: full scan per query point, ties broken by index.
		bruteRows := make([][]join.Neighbor, a.Len())
		for i := 0; i < a.Len(); i++ {
			all := make([]join.Neighbor, b.Len())
			q := a.Point(i)
			for j := 0; j < b.Len(); j++ {
				all[j] = join.Neighbor{Index: j, Dist: vec.Dist(vec.L2, q, b.Point(j))}
			}
			sort.Slice(all, func(x, y int) bool {
				return all[x].Dist < all[y].Dist || all[x].Dist == all[y].Dist && all[x].Index < all[y].Index
			})
			bruteRows[i] = all[:k]
		}
		bruteTime := watch.Lap()
		// Spot-check agreement, indexes included: both break ties by index.
		for i := 0; i < a.Len(); i += 97 {
			for j := 0; j < k; j++ {
				if rows[i][j] != bruteRows[i][j] {
					panic("bench: k-NN join disagrees with brute baseline")
				}
			}
		}
		tb.AddRow(k, ms(indexed), c.Snapshot().DistComps, ms(bruteTime),
			float64(bruteTime)/float64(indexed))
	}
	return tb
}

// E2CurveAblation swaps the Morton key for the Hilbert key in the
// curve-block join. Expected shape: Hilbert's tighter blocks inspect
// somewhat fewer candidates; the gap narrows as blocks grow (bigger blocks
// wash out curve order).
func E2CurveAblation(quick bool) *stats.Table {
	n := 16000
	if quick {
		n = 3000
	}
	ds := synth.Generate(synth.Config{N: n, Dims: 8, Seed: 0xE3, Dist: synth.GaussianClusters})
	tb := stats.NewTable("E2 curve ablation (clustered, d=8, ε=0.05)",
		"block", "z_ms", "z_candidates", "hilbert_ms", "hilbert_candidates", "pairs")
	for _, block := range []int{64, 256, 1024} {
		run := func(key zorder.KeyFunc) (float64, int64, int64) {
			var c stats.Counters
			var sink pairs.Counter
			watch := stats.Start()
			zorder.SelfJoinKeyed(ds, join.Options{Metric: vec.L2, Eps: 0.05, Counters: &c}, block, key, &sink)
			return ms(watch.Elapsed()), c.Snapshot().Candidates, sink.N()
		}
		zMs, zCand, zPairs := run(zorder.Key)
		hMs, hCand, hPairs := run(hilbert.Key)
		if zPairs != hPairs {
			panic("bench: curve ablation results disagree")
		}
		tb.AddRow(block, zMs, zCand, hMs, hCand, zPairs)
	}
	return tb
}

// E3Estimation measures the planner's transient-sample estimate (the one
// an unsketched dataset is priced with) as the sample grows. Expected
// shape: error shrinks roughly with 1/√sample; even small samples land
// within a small factor.
func E3Estimation(quick bool) *stats.Table {
	n := 20000
	if quick {
		n = 5000
	}
	ds := synth.Generate(synth.Config{N: n, Dims: 6, Seed: 0xE4, Dist: synth.GaussianClusters})
	const eps = 0.08
	exact := RunSelf("ekdb", ds, eps).PairsEmitted
	tb := stats.NewTable("E3 selectivity estimation (exact result size known)",
		"sample", "estimate", "exact", "rel_error", "est_ms")
	nf := float64(ds.Len())
	for _, sample := range []int{100, 250, 500, 1000, 2000} {
		watch := stats.Start()
		// Average a few seeds so the row reflects typical, not lucky, error.
		var sum float64
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			sel := sketch.Sample(ds, sample, 100+s).SelfSelectivity(vec.L2, eps)
			sum += float64(int64(sel*nf*(nf-1)/2 + 0.5))
		}
		est := int64(sum / seeds)
		elapsed := watch.Elapsed() / seeds
		rel := 0.0
		if exact > 0 {
			rel = float64(est-exact) / float64(exact)
			if rel < 0 {
				rel = -rel
			}
		}
		tb.AddRow(sample, est, exact, rel, ms(elapsed))
	}
	return tb
}
