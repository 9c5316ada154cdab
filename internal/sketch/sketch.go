// Package sketch maintains one-pass, incrementally updated join-size
// sketches: per-dataset summaries cheap enough to keep resident that
// answer self-join and two-set size/selectivity estimates at any
// (metric, ε) without touching the raw points again.
//
// The design follows the streaming join-size estimation literature
// (see PAPERS.md): each arriving point is compared against a small,
// fixed number of members of a bounded uniform reservoir sample, and the
// observed distances are recorded in per-metric log-scale histograms.
// An update therefore costs O(PairsPerPoint · dims) — independent of
// the dataset size — and a query costs one histogram scan. Because the
// (arriving point, reservoir member) pairs are a uniform sample of the
// unordered point pairs seen so far (exactly uniform for exchangeable
// input orders), the fraction of recorded distances ≤ ε estimates the
// self-join selectivity directly; no finite-population pair correction
// is needed because the estimate is a fraction, not a scaled count.
// Expect factor-level accuracy.
//
// The sketch is the library's only join-size estimator: a dataset with
// no resident sketch is planned from a transient one over a uniform
// sample (Sample), which is the classic sample-join estimator.
package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

const (
	// DefaultReservoir is the bounded uniform sample size. 512 points keeps
	// a d=32 sketch near 128 KiB while leaving two-set reservoir
	// cross-joins (≤ 512² early-exited distance tests) well under a
	// millisecond.
	DefaultReservoir = 512
	// DefaultPairsPerPoint is how many reservoir members each arriving
	// point is compared against. 8 keeps the per-append cost at a handful
	// of distance evaluations while the recorded-pair count grows 8× faster
	// than the dataset.
	DefaultPairsPerPoint = 8
	// DefaultSeed seeds the sketch's deterministic sampling when the
	// config leaves it zero.
	DefaultSeed = 0x5ce7c4
)

// Config tunes a sketch; the zero value selects every default.
type Config struct {
	// Reservoir bounds the uniform point sample (0 = DefaultReservoir).
	Reservoir int
	// PairsPerPoint is the number of sampled distances recorded per
	// arriving point (0 = DefaultPairsPerPoint).
	PairsPerPoint int
	// Seed makes the sampling deterministic (0 = DefaultSeed).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Reservoir <= 0 {
		c.Reservoir = DefaultReservoir
	}
	if c.PairsPerPoint <= 0 {
		c.PairsPerPoint = DefaultPairsPerPoint
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Sketch is one dataset's resident join-size summary. All methods are
// safe for concurrent use: the serving layer appends under its own
// locks while queries estimate concurrently.
type Sketch struct {
	mu  sync.RWMutex
	cfg Config
	rng *rand.Rand

	dims int
	n    int64 // points observed so far

	// res is the bounded uniform reservoir (algorithm R) over everything
	// observed; while n ≤ cfg.Reservoir it holds the dataset exactly and
	// estimates are exact counts.
	res *dataset.Dataset

	// hist records sampled pair distances per metric; pairs is the number
	// of sampled pairs (identical across metrics — every sampled pair is
	// recorded under all three).
	hist  [3]histogram
	pairs int64
}

// New returns an empty sketch for dims-dimensional points. It panics if
// dims < 1, mirroring dataset.New.
func New(dims int, cfg Config) *Sketch {
	if dims < 1 {
		panic(fmt.Sprintf("sketch: dims must be >= 1, got %d", dims))
	}
	cfg = cfg.withDefaults()
	return &Sketch{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		dims: dims,
		res:  dataset.New(dims, cfg.Reservoir),
	}
}

// FromDataset builds a sketch over every point of ds — the bulk-upload,
// store-recovery and EnableSketch path. The points are observed in a
// seeded permutation, not in the order given: each arrival is compared
// only with reservoir members drawn from the points before it, so an
// upload sorted or grouped by region over-samples pairs among its early
// points (2.1–2.6× the exact count on blob-grouped data,
// docs/ESTIMATION.md). The permutation's rng is separate from the
// sketch's, so the reservoir stays uniform and later Observes still
// follow arrival order.
func FromDataset(ds *dataset.Dataset, cfg Config) *Sketch {
	s := New(ds.Dims(), cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range rand.New(rand.NewSource(^s.cfg.Seed)).Perm(ds.Len()) {
		s.observe(ds.Point(i))
	}
	return s
}

// Sample returns a transient sketch over a seeded uniform sample of
// min(ds.Len(), size) points, drawn by Floyd's algorithm without copying
// or shuffling the rest. Its reservoir holds the whole sample, so both
// selectivities are exact counts over it and the histograms are never
// read (they stay empty). Scaled by the planner to n(n−1)/2 pairs, the
// self estimate is count·n(n−1)/(s(s−1)) — the unbiased sample-join
// estimator (an unordered pair survives sampling s of n points with
// probability s(s−1)/(n(n−1)); the square of the sampling ratio would
// under-estimate) — and scaled to na·nb the cross estimate is the two
// sampling ratios' product, unbiased as it stands.
func Sample(ds *dataset.Dataset, size int, seed int64) *Sketch {
	n := ds.Len()
	size = min(size, n)
	rng := rand.New(rand.NewSource(seed))
	picked := make(map[int]bool, size)
	idx := make([]int, 0, size)
	for j := n - size; j < n; j++ {
		i := rng.Intn(j + 1)
		if picked[i] {
			i = j
		}
		picked[i] = true
		idx = append(idx, i)
	}
	s := New(ds.Dims(), Config{Reservoir: size, Seed: seed})
	s.res, s.n = ds.Subset(idx), int64(size)
	return s
}

// Observe folds one appended point into the sketch: record its distance
// to a few random reservoir members under every metric, then give it a
// uniform chance of joining the reservoir. It panics on a
// dimensionality mismatch, mirroring dataset.Append.
func (s *Sketch) Observe(p []float64) {
	if len(p) != s.dims {
		panic(fmt.Sprintf("sketch: point has %d dims, sketch has %d", len(p), s.dims))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observe(p)
}

// observe is Observe under s.mu.
func (s *Sketch) observe(p []float64) {
	k := s.res.Len()
	c := s.cfg.PairsPerPoint
	if c > k {
		c = k
	}
	for i := 0; i < c; i++ {
		sq, l1, linf := vec.DistAll(p, s.res.Point(s.rng.Intn(k)))
		s.hist[vec.L2].add(math.Sqrt(sq))
		s.hist[vec.L1].add(l1)
		s.hist[vec.Linf].add(linf)
		s.pairs++
	}
	// Reservoir update (algorithm R): the i-th arrival (0-based i = n)
	// replaces a uniform slot with probability cap/(i+1).
	if k < s.cfg.Reservoir {
		s.res.Append(p)
	} else if j := s.rng.Int63n(s.n + 1); j < int64(s.cfg.Reservoir) {
		copy(s.res.Point(int(j)), p)
	}
	s.n++
}

// Len returns the number of points observed.
func (s *Sketch) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.n)
}

// Dims returns the sketch dimensionality.
func (s *Sketch) Dims() int { return s.dims }

// Stats is a sketch's introspection snapshot (served as dataset
// metadata).
type Stats struct {
	Points       int64 `json:"points"`
	Reservoir    int   `json:"reservoir"`
	SampledPairs int64 `json:"sampled_pairs"`
}

// Snapshot reports the sketch's current state.
func (s *Sketch) Snapshot() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Points: s.n, Reservoir: s.res.Len(), SampledPairs: s.pairs}
}

// SelfSelectivity estimates the fraction of unordered point pairs within
// eps under m, in [0, 1]. While every observed point is still in the
// reservoir the answer is an exact count; afterwards it is the
// (interpolated) fraction of sampled pair distances ≤ eps.
func (s *Sketch) SelfSelectivity(m vec.Metric, eps float64) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.selfSelectivityLocked(m, eps)
}

func (s *Sketch) selfSelectivityLocked(m vec.Metric, eps float64) float64 {
	switch {
	case s.n < 2 || !(eps >= 0): // empty, or eps < 0 / NaN: nothing joins
		return 0
	case math.IsInf(eps, 1):
		return 1
	case int64(s.res.Len()) == s.n:
		// Everything observed is still resident: count exactly.
		return float64(bruteCount(s.res, s.res, m, eps, true)) /
			(float64(s.n) * float64(s.n-1) / 2)
	case s.pairs == 0:
		return 0
	}
	return s.hist[m].fracAtMost(eps, s.pairs)
}

// SelfJoinSize estimates the number of result pairs of a self-join over
// everything observed, at the given metric and ε.
func (s *Sketch) SelfJoinSize(m vec.Metric, eps float64) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.n * (s.n - 1) / 2
	return int64(s.selfSelectivityLocked(m, eps)*float64(total) + 0.5)
}

// reservoirSnapshot copies out the state a cross-sketch estimate needs,
// so two-sketch queries never hold two sketch locks at once (no lock
// ordering between independent sketches).
func (s *Sketch) reservoirSnapshot() (n int64, res *dataset.Dataset) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n, s.res.Clone()
}

// JoinSelectivity estimates the fraction of the |a|×|b| cross pairs
// within eps under m, in [0, 1]: the exact fraction over the two
// reservoirs. Cross pairs drawn from two independent uniform samples
// are themselves uniform over the cross product, so the sample fraction
// estimates the population fraction without any finite-population
// correction. A dimensionality mismatch reports 0.
func (s *Sketch) JoinSelectivity(o *Sketch, m vec.Metric, eps float64) float64 {
	if s.dims != o.dims {
		return 0
	}
	var na, nb int64
	var ra, rb *dataset.Dataset
	if s == o {
		na, ra = s.reservoirSnapshot()
		nb, rb = na, ra
	} else {
		na, ra = s.reservoirSnapshot()
		nb, rb = o.reservoirSnapshot()
	}
	switch {
	case na == 0 || nb == 0 || !(eps >= 0):
		return 0
	case math.IsInf(eps, 1):
		return 1
	case ra.Len() == 0 || rb.Len() == 0:
		return 0
	}
	count := bruteCount(ra, rb, m, eps, false)
	return float64(count) / (float64(ra.Len()) * float64(rb.Len()))
}

// JoinSize estimates the result cardinality of a two-set join of
// everything the two sketches observed, at the given metric and ε.
func (s *Sketch) JoinSize(o *Sketch, m vec.Metric, eps float64) int64 {
	na, nb := int64(s.Len()), int64(o.Len())
	return int64(s.JoinSelectivity(o, m, eps)*float64(na)*float64(nb) + 0.5)
}

// bruteCount counts qualifying pairs between two point sets: unordered
// i < j pairs when self is set (a and b must then be the same set),
// all (i, j) cross pairs otherwise. It runs the brute engine's flat
// kernel, so a sample's count is the one a brute join would report.
func bruteCount(a, b *dataset.Dataset, m vec.Metric, eps float64, self bool) int64 {
	t := vec.Threshold(m, eps)
	fa, fb := a.FlatView(), b.FlatView()
	var count int64
	for i := 0; i < a.Len(); i++ {
		lo := 0
		if self {
			lo = i + 1
		}
		_, res := vec.ProbeRangeFlat(m, fa, int32(i), fb, lo, b.Len(), t, func(int32) {})
		count += res
	}
	return count
}
