package simjoin

import (
	"fmt"
	"math"
	"time"

	"simjoin/internal/vec"
)

// Metric selects the distance function of a join.
type Metric int

const (
	// L2 is the Euclidean metric (the default).
	L2 Metric = iota
	// L1 is the Manhattan metric.
	L1
	// Linf is the maximum (Chebyshev) metric.
	Linf
)

// String returns the metric's conventional name.
func (m Metric) String() string { return m.internal().String() }

// ParseMetric converts "L2", "L1" or "Linf" (case-insensitive variants
// accepted) to a Metric.
func ParseMetric(s string) (Metric, error) {
	im, err := vec.ParseMetric(s)
	if err != nil {
		return L2, err
	}
	switch im {
	case vec.L1:
		return L1, nil
	case vec.Linf:
		return Linf, nil
	default:
		return L2, nil
	}
}

func (m Metric) internal() vec.Metric {
	switch m {
	case L1:
		return vec.L1
	case Linf:
		return vec.Linf
	default:
		return vec.L2
	}
}

// Algorithm names one of the library's join algorithms.
type Algorithm string

const (
	// AlgorithmEKDB is the ε-kdB tree join — the library's primary
	// algorithm and the right default for high-dimensional selective joins.
	AlgorithmEKDB Algorithm = "ekdb"
	// AlgorithmBrute is the O(N²) nested loop; fastest for very small
	// inputs.
	AlgorithmBrute Algorithm = "brute"
	// AlgorithmSweep sorts on dimension 0 and sweeps an ε strip.
	AlgorithmSweep Algorithm = "sweep"
	// AlgorithmGrid hashes points into ε-cells and joins adjacent cells.
	AlgorithmGrid Algorithm = "grid"
	// AlgorithmKDTree answers one ε-range query per point over a k-d tree.
	AlgorithmKDTree Algorithm = "kdtree"
	// AlgorithmRTree joins two bulk-loaded R-trees by synchronized
	// traversal.
	AlgorithmRTree Algorithm = "rtree"
	// AlgorithmRPlus joins two point R+-trees (disjoint sibling regions) by
	// synchronized traversal — the original evaluation's strongest
	// disk-era baseline.
	AlgorithmRPlus Algorithm = "rplus"
	// AlgorithmZOrder sorts along a Z-order curve and joins MBR-pruned
	// blocks.
	AlgorithmZOrder Algorithm = "zorder"
	// AlgorithmHilbert is AlgorithmZOrder with a Hilbert curve — better
	// worst-case locality for the same block machinery.
	AlgorithmHilbert Algorithm = "hilbert"
	// AlgorithmAuto estimates the workload's selectivity from a join-size
	// sketch and picks brute, sweep, grid or ekdb accordingly (see plan.go
	// for the calibrated rules).
	AlgorithmAuto Algorithm = "auto"
)

// Algorithms lists every available algorithm in evaluation order.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgorithmBrute, AlgorithmSweep, AlgorithmGrid, AlgorithmKDTree,
		AlgorithmRTree, AlgorithmRPlus, AlgorithmZOrder, AlgorithmHilbert,
		AlgorithmEKDB,
	}
}

// Options configures a join. Eps is required; everything else has a useful
// zero value.
type Options struct {
	// Eps is the similarity threshold: pairs with dist ≤ Eps are reported.
	Eps float64
	// Metric selects the distance function (default L2).
	Metric Metric
	// Algorithm selects the join algorithm (default AlgorithmEKDB).
	Algorithm Algorithm
	// Workers is how many goroutines the join spreads over (ekdb, grid and
	// kdtree; the other algorithms always use one). ≤ 1 runs the join on
	// the caller's goroutine. Results and work counters do not depend on
	// it.
	Workers int
	// CollectPairs controls whether Result.Pairs is populated (default
	// true). Disable for counting-only runs over huge outputs.
	CollectPairs *bool
	// Stats, if non-nil, is overwritten with a copy of the run's report
	// (JoinStats), the one every entry point also returns: Result.Stats,
	// or the first result of SelfJoinEach and JoinEach.
	Stats *JoinStats
	// Trace, if non-nil, is the parent span under which the run records
	// its trace: one child span per entry point, annotated with the
	// resolved algorithm and the run's work counters, plus "build" and
	// "probe" child spans derived from the engines' phase timers. nil
	// (the default) disables tracing at the cost of one pointer check.
	// See NewTracer.
	Trace *Span
}

func (o Options) collect() bool { return o.CollectPairs == nil || *o.CollectPairs }

func (o Options) validate() error {
	// !(Eps > 0) also rejects NaN; the explicit IsInf rejects +Inf, which
	// would otherwise poison grid cell widths and ε-kdB stripe arithmetic.
	if !(o.Eps > 0) || math.IsInf(o.Eps, 0) {
		return fmt.Errorf("simjoin: Eps must be positive and finite, got %g", o.Eps)
	}
	if o.Metric != L2 && o.Metric != L1 && o.Metric != Linf {
		return fmt.Errorf("simjoin: unknown metric %d", int(o.Metric))
	}
	if o.Algorithm != "" {
		if _, ok := registry[o.Algorithm]; !ok {
			return fmt.Errorf("simjoin: unknown algorithm %q", o.Algorithm)
		}
	}
	return nil
}

// JoinStats is the report of one join run, returned by every entry point
// (and copied to Options.Stats when set). Its work counters are charged
// atomically by the engines, on every path — collecting, counting-only
// and streaming. It decomposes where the time and the work went:
// BuildTime covers organizing the data (sort, hash grid, tree
// construction), ProbeTime covers enumerating and testing candidate
// pairs — the cost split the performance evaluation attributes across
// algorithms, dimensionality and ε — and CollectTime covers turning the
// emitted pairs into Result.Pairs. The three never sum to more than
// Elapsed.
type JoinStats struct {
	// Algorithm is the concrete algorithm that ran (Auto and the empty
	// default are resolved).
	Algorithm Algorithm
	// Keys is what the ε-kdB tree striped and swept on: "raw" for the
	// points' own coordinates, "pivot/<k>" for distances to k data-chosen
	// pivots, which a one-shot join takes when a sample says raw
	// coordinates have stopped filtering. Empty for every other algorithm.
	Keys string
	// DistComps is the number of (possibly early-exited) distance
	// evaluations the engines charged.
	DistComps int64
	// Candidates is the number of point pairs that reached the distance
	// test after all filtering.
	Candidates int64
	// NodeVisits counts index-node visits for tree/block algorithms.
	NodeVisits int64
	// PairsEmitted is the number of result pairs the run produced
	// (before any response-level truncation).
	PairsEmitted int64
	// EstimatedPairs is the planner's pre-run result-size prediction, or
	// -1 when the run decided without one (an explicit algorithm was
	// requested, or Auto short-circuited on a trivial input). Compare
	// against PairsEmitted to judge the estimator — simjoind exports the
	// ratio as a histogram.
	EstimatedPairs int64
	// BuildTime is the wall time spent constructing the join's data
	// organization. Zero for brute force, which has none.
	BuildTime time.Duration
	// ProbeTime is the wall time spent enumerating and testing
	// candidates against the built organization.
	ProbeTime time.Duration
	// CollectTime is the wall time a collecting run spent after its last
	// pair was found: merging the workers' buffers, sorting the pairs
	// into Result.Pairs order and converting them. Zero for counting-only
	// runs (CollectPairs disabled) and for the streaming *Each calls,
	// which never hold the pairs.
	CollectTime time.Duration
	// Elapsed is the wall-clock time of the whole join, build included.
	Elapsed time.Duration
}

// Pair is one join result: point i of the first (or only) set matches
// point j of the second.
type Pair struct {
	I, J int
}

// Result is the outcome of a join.
type Result struct {
	// Pairs holds the matching pairs (self-joins: each unordered pair once
	// with I < J). Empty when Options.CollectPairs is disabled.
	Pairs []Pair
	// Stats is the run's report (see JoinStats).
	Stats JoinStats
}
