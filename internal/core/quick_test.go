package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simjoin/internal/brute"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// quickCase derives a random-but-reproducible workload from a seed.
func quickCase(seed int64) (cfg synth.Config, tree Config, eps float64, metric vec.Metric) {
	rng := rand.New(rand.NewSource(seed))
	cfg = synth.Config{
		N:    2 + rng.Intn(180),
		Dims: 1 + rng.Intn(8),
		Seed: rng.Int63(),
		Dist: synth.AllDistributions()[rng.Intn(4)],
	}
	tree = Config{LeafThreshold: 1 + rng.Intn(32), BiasedSplit: rng.Intn(2) == 1}
	eps = 0.01 + rng.Float64()*0.5
	metric = vec.Metric(rng.Intn(3))
	tree.Metric = metric
	return
}

// TestQuickStructuralInvariants: for arbitrary workloads, the built tree
// satisfies every structural invariant.
func TestQuickStructuralInvariants(t *testing.T) {
	f := func(seed int64) bool {
		cfg, tcfg, eps, _ := quickCase(seed)
		tr := Build(synth.Generate(cfg), eps, tcfg)
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickOracleEquivalence: for arbitrary workloads, the join answer
// equals brute force exactly.
func TestQuickOracleEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		cfg, tcfg, eps, metric := quickCase(seed)
		ds := synth.Generate(cfg)
		opt := join.Options{Metric: metric, Eps: eps}
		want := &pairs.Collector{Canonical: true}
		brute.SelfJoin(ds, opt, want)
		got := &pairs.Collector{Canonical: true}
		tr := Build(ds, eps, tcfg)
		tr.SelfJoin(opt, got)
		return pairs.Equal(pairs.Dedup(got.Sorted()), want.Sorted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickInsertDeleteConsistency: random interleavings of inserts and
// deletes keep the tree consistent with a fresh build over the survivors.
func TestQuickInsertDeleteConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg, tcfg, eps, metric := quickCase(seed)
		ds := synth.Generate(cfg)
		tr := Build(ds, eps, tcfg)

		alive := make([]bool, ds.Len())
		for i := range alive {
			alive[i] = true
		}
		// Random deletes (about a third), then reinsert a few.
		for k := 0; k < ds.Len()/3; k++ {
			i := rng.Intn(ds.Len())
			if alive[i] {
				if !tr.Delete(i) {
					return false
				}
				alive[i] = false
			}
		}
		for i := range alive {
			if !alive[i] && rng.Intn(2) == 0 {
				tr.Insert(i)
				alive[i] = true
			}
		}
		var keep []int
		for i, a := range alive {
			if a {
				keep = append(keep, i)
			}
		}
		if len(keep) < 2 {
			return true
		}
		opt := join.Options{Metric: metric, Eps: eps}
		got := &pairs.Collector{Canonical: true}
		tr.SelfJoin(opt, got)
		sub := ds.Subset(keep)
		subPairs := &pairs.Collector{Canonical: true}
		brute.SelfJoin(sub, opt, subPairs)
		want := &pairs.Collector{Canonical: true}
		for _, p := range subPairs.Pairs {
			want.Emit(keep[p.I], keep[p.J])
		}
		return pairs.Equal(got.Sorted(), want.Sorted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGrowDeleteMatchesBatchRebuild: a tree seeded from a prefix
// and grown point by point through the dynamic insert path — with
// deletes interleaved into the growth — answers joins exactly like a
// batch build over the alive subset. This is the live-engine usage
// pattern: the index is seeded once and never rebuilt as the dataset
// grows, even when appended points land outside the seed frame.
func TestQuickGrowDeleteMatchesBatchRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg, tcfg, eps, metric := quickCase(seed)
		full := synth.Generate(cfg)
		if full.Len() < 4 {
			return true
		}
		prefix := 1 + rng.Intn(full.Len()-1)
		ds := full.Head(prefix).Clone()
		tr := Build(ds, eps, tcfg)

		alive := make([]bool, full.Len())
		for i := 0; i < prefix; i++ {
			alive[i] = true
		}
		for i := prefix; i < full.Len(); i++ {
			ds.Append(full.Point(i))
			tr.Insert(i)
			alive[i] = true
			if rng.Intn(3) == 0 {
				j := rng.Intn(i + 1)
				if alive[j] {
					if !tr.Delete(j) {
						return false
					}
					alive[j] = false
				}
			}
		}
		var keep []int
		for i, a := range alive {
			if a {
				keep = append(keep, i)
			}
		}
		if len(keep) < 2 {
			return true
		}
		opt := join.Options{Metric: metric, Eps: eps}
		got := &pairs.Collector{Canonical: true}
		tr.SelfJoin(opt, got)
		subPairs := &pairs.Collector{Canonical: true}
		brute.SelfJoin(full.Subset(keep), opt, subPairs)
		want := &pairs.Collector{Canonical: true}
		for _, p := range subPairs.Pairs {
			want.Emit(keep[p.I], keep[p.J])
		}
		return pairs.Equal(got.Sorted(), want.Sorted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSmallerEpsIsSubset: shrinking the query ε can only shrink the
// result set (monotonicity of the multi-ε query path).
func TestQuickSmallerEpsIsSubset(t *testing.T) {
	f := func(seed int64) bool {
		cfg, tcfg, eps, metric := quickCase(seed)
		ds := synth.Generate(cfg)
		tr := Build(ds, eps, tcfg)
		big := &pairs.Collector{Canonical: true}
		tr.SelfJoin(join.Options{Metric: metric, Eps: eps}, big)
		small := &pairs.Collector{Canonical: true}
		tr.SelfJoin(join.Options{Metric: metric, Eps: eps / 3}, small)
		inBig := map[pairs.Pair]bool{}
		for _, p := range big.Pairs {
			inBig[p] = true
		}
		for _, p := range small.Pairs {
			if !inBig[p] {
				return false
			}
		}
		return len(small.Pairs) <= len(big.Pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
