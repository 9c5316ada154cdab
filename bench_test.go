package simjoin_test

// One testing.B benchmark per experiment of the evaluation (DESIGN.md §4).
// These are the micro-level counterparts of cmd/repro: each pins a
// representative point of its figure's sweep so `go test -bench .` gives a
// stable, comparable timing of the same code paths. Regenerate the full
// curves with `go run ./cmd/repro`.

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"simjoin"

	"simjoin/internal/bench"
	"simjoin/internal/core"
	"simjoin/internal/dataset"
	"simjoin/internal/dft"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// benchSelf times one algorithm on one workload, reporting pairs found.
func benchSelf(b *testing.B, algo string, ds *dataset.Dataset, eps float64) {
	b.Helper()
	b.ReportAllocs()
	var pairsFound int64
	for i := 0; i < b.N; i++ {
		r := bench.RunSelf(algo, ds, vec.L2, eps)
		pairsFound = r.Pairs
	}
	b.ReportMetric(float64(pairsFound), "pairs")
}

// BenchmarkF1ScaleN pins the N=10k point of figure F1 for every algorithm.
func BenchmarkF1ScaleN(b *testing.B) {
	ds := bench.Uniform(10000, 8, 0xF1)
	for _, algo := range bench.AlgoNames {
		b.Run(algo, func(b *testing.B) { benchSelf(b, algo, ds, 0.1) })
	}
}

// BenchmarkF2Dimensionality pins three dimensionalities of figure F2 for
// the tree-based contenders.
func BenchmarkF2Dimensionality(b *testing.B) {
	for _, d := range []int{4, 16, 28} {
		ds := bench.Uniform(8000, d, 0xF2)
		eps := bench.CalibrateEps(ds, vec.L2, 16000)
		for _, algo := range []string{"kdtree", "rtree", "rplus", "grid", "ekdb"} {
			b.Run(fmt.Sprintf("%s/d=%d", algo, d), func(b *testing.B) { benchSelf(b, algo, ds, eps) })
		}
	}
}

// BenchmarkF3Epsilon pins a small and a large ε of figure F3.
func BenchmarkF3Epsilon(b *testing.B) {
	ds := bench.Uniform(8000, 8, 0xF3)
	for _, eps := range []float64{0.04, 0.16} {
		for _, algo := range []string{"grid", "ekdb"} {
			b.Run(fmt.Sprintf("%s/eps=%g", algo, eps), func(b *testing.B) { benchSelf(b, algo, ds, eps) })
		}
	}
}

// BenchmarkF4LeafThreshold ablates the ε-kdB leaf capacity (figure F4).
func BenchmarkF4LeafThreshold(b *testing.B) {
	ds := bench.Uniform(10000, 8, 0xF4)
	for _, leaf := range []int{16, 64, 1024} {
		b.Run("ekdb/leaf="+strconv.Itoa(leaf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := core.Build(ds, 0.1, core.Config{LeafThreshold: leaf})
				var sink pairs.Counter
				t.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.1}, &sink)
			}
		})
	}
}

// BenchmarkF5Candidates measures the pure filtering cost at high
// dimensionality (figure F5's d=28 point).
func BenchmarkF5Candidates(b *testing.B) {
	ds := bench.Uniform(6000, 28, 0xF5)
	eps := bench.CalibrateEps(ds, vec.L2, 12000)
	for _, algo := range []string{"grid", "rtree", "rplus", "ekdb"} {
		b.Run(algo, func(b *testing.B) { benchSelf(b, algo, ds, eps) })
	}
}

// BenchmarkF6Distributions pins the zipf (most skewed) workload of F6.
func BenchmarkF6Distributions(b *testing.B) {
	ds := synth.Generate(synth.Config{N: 8000, Dims: 8, Seed: 0xF6, Dist: synth.Zipf})
	for _, algo := range []string{"grid", "zorder", "ekdb"} {
		b.Run(algo, func(b *testing.B) { benchSelf(b, algo, ds, 0.08) })
	}
}

// BenchmarkF7External times the two external algorithms at a tight buffer
// budget (figure F7's left edge).
func BenchmarkF7External(b *testing.B) {
	ds := bench.Uniform(10000, 4, 0xF7)
	cfg := core.ExternalConfig{PoolPages: 16}
	opt := join.Options{Metric: vec.L2, Eps: 0.05}
	b.Run("ekdb-ext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink pairs.Counter
			core.ExternalSelfJoin(ds, opt, cfg, &sink)
		}
	})
	b.Run("bnl-ext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink pairs.Counter
			core.ExternalBlockNestedLoopSelfJoin(ds, opt, cfg, &sink)
		}
	})
}

// BenchmarkF8TimeSeries times the DFT feature pipeline (figure F8's k=4
// point): feature extraction plus feature-space join.
func BenchmarkF8TimeSeries(b *testing.B) {
	series := synth.SimilarWalkPairs(2000, 50, 128, 1, 0.05, 0xF8)
	b.Run("features-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dft.FeatureDataset(series, 4)
		}
	})
	feats := dft.FeatureDataset(series, 4)
	b.Run("filter-join-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink pairs.Counter
			core.SelfJoin(feats, join.Options{Metric: vec.L2, Eps: 2}, &sink)
		}
	})
}

// BenchmarkT1Summary times the public API end to end (table T1's workload)
// including pair collection, serial vs parallel ε-kdB.
func BenchmarkT1Summary(b *testing.B) {
	ds, err := simjoin.Synthetic("clustered", 8000, 8, 0x71)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ekdb-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simjoin.SelfJoin(ds, simjoin.Options{Eps: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ekdb-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simjoin.SelfJoin(ds, simjoin.Options{Eps: 0.05, Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT2Breakdown separates ε-kdB build from join (table T2).
func BenchmarkT2Breakdown(b *testing.B) {
	ds := synth.Generate(synth.Config{N: 10000, Dims: 8, Seed: 0x73, Dist: synth.GaussianClusters})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Build(ds, 0.05, core.Config{})
		}
	})
	t := core.Build(ds, 0.05, core.Config{})
	b.Run("join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sink pairs.Counter
			t.SelfJoin(join.Options{Metric: vec.L2, Eps: 0.05}, &sink)
		}
	})
}

// BenchmarkT3TwoSetJoinWorkers times the parallel two-set join engine at
// the tentpole's acceptance scale — a 100k×100k uniform workload —
// pinning Workers=1 against Workers=GOMAXPROCS over identical inputs.
// TestJoinParallelLargeMatchesSerial asserts both configurations produce
// the identical sorted pair set; this benchmark times them (count-only,
// so the measurement is the join engine, not result buffering).
func BenchmarkT3TwoSetJoinWorkers(b *testing.B) {
	a, err := simjoin.Synthetic("uniform", 100000, 8, 0x75)
	if err != nil {
		b.Fatal(err)
	}
	c, err := simjoin.Synthetic("uniform", 100000, 8, 0x76)
	if err != nil {
		b.Fatal(err)
	}
	no := false
	// Floor the parallel leg at 2 so the two sub-benchmarks stay distinct
	// even on a single-core runner.
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		parallel = 2
	}
	for _, workers := range []int{1, parallel} {
		b.Run("ekdb/workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			var pairsFound int64
			for i := 0; i < b.N; i++ {
				res, err := simjoin.Join(a, c, simjoin.Options{
					Eps: 0.1, Workers: workers, CollectPairs: &no,
				})
				if err != nil {
					b.Fatal(err)
				}
				pairsFound = res.Stats.Results
			}
			b.ReportMetric(float64(pairsFound), "pairs")
		})
	}
}

// BenchmarkNeighborIndexGrow is the in-process twin of serve_ingest's
// side op: a 32-point append, then one range query, on a 20 000-point
// d = 8 clustered set. "rebuild" builds a fresh index over every grown
// snapshot, which is what the worker did before its index survived
// appends; "tail" extends the standing index over the new snapshot, so
// the query scans the appended points after the tree. Every n/8 appended
// points (where the worker starts a rebuild, off the query's path) both
// restart from the base set, outside the timer.
func BenchmarkNeighborIndexGrow(b *testing.B) {
	const n, dims, batch, radius = 20000, 8, 32, 0.1
	const tail = n / 8 / batch * batch
	src := synth.Generate(synth.Config{N: n + tail, Dims: dims, Seed: 0x26, Dist: synth.GaussianClusters})
	base := dataset.FromFlat(dims, src.Flat()[:n*dims:n*dims])
	extra := src.Flat()[n*dims:]
	q := src.Point(n / 2)
	for _, mode := range []string{"rebuild", "tail"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var snap *simjoin.Dataset
			var idx *simjoin.NeighborIndex
			next := len(extra)
			for i := 0; i < b.N; i++ {
				if next == len(extra) {
					b.StopTimer()
					snap = simjoin.WrapDataset(base)
					idx, next = simjoin.NewNeighborIndex(snap), 0
					b.StartTimer()
				}
				snap = simjoin.WrapDataset(snap.Internal().Grow(extra[next : next+batch*dims]))
				next += batch * dims
				if mode == "rebuild" {
					idx = simjoin.NewNeighborIndex(snap)
				} else {
					idx = idx.Extend(snap)
				}
				idx.Range(q, simjoin.L2, radius)
			}
		})
	}
}
