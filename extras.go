package simjoin

import (
	"fmt"

	"simjoin/internal/dft"
	"simjoin/internal/join"
	"simjoin/internal/kdtree"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// Synthetic generates one of the library's synthetic workloads —
// "uniform", "clustered", "correlated" or "zipf" — with n points of the
// given dimensionality, deterministically for a seed. These are the same
// generators the benchmark harness sweeps.
func Synthetic(kind string, n, dims int, seed int64) (*Dataset, error) {
	dist, err := synth.ParseDistribution(kind)
	if err != nil {
		return nil, err
	}
	if n <= 0 || dims <= 0 {
		return nil, fmt.Errorf("simjoin: invalid synthetic shape %dx%d", n, dims)
	}
	return &Dataset{ds: synth.Generate(synth.Config{N: n, Dims: dims, Seed: seed, Dist: dist})}, nil
}

// SyntheticKinds lists the accepted Synthetic kind names.
func SyntheticKinds() []string {
	out := make([]string, 0, 4)
	for _, d := range synth.AllDistributions() {
		out = append(out, d.String())
	}
	return out
}

// RandomWalks generates n random-walk time sequences of the given length —
// the stand-in for the stock/utilization traces of the time-series
// application.
func RandomWalks(n, length int, seed int64) [][]float64 {
	return synth.RandomWalks(n, length, 1, seed)
}

// TimeSeriesFeatures maps equal-length sequences to their first k DFT
// coefficients (2k real dimensions each). Euclidean distance between
// feature vectors never exceeds the distance between the raw sequences, so
// an ε-join in feature space yields a candidate set with no false
// dismissals; refine candidates with SeqDist.
func TimeSeriesFeatures(series [][]float64, k int) *Dataset {
	return &Dataset{ds: dft.FeatureDataset(series, k)}
}

// SeqDist returns the Euclidean distance between two equal-length
// sequences — the refinement test of the DFT filter-and-refine pipeline.
func SeqDist(a, b []float64) float64 { return dft.SeqDist(a, b) }

// SlidingFeatures maps every length-window subsequence of series (stride
// 1) to its first k DFT coefficients using the O(k)-per-step sliding-DFT
// recurrence — the subsequence-matching counterpart of
// TimeSeriesFeatures. Each row lower-bounds its window's distances just
// like whole-sequence features.
func SlidingFeatures(series []float64, window, k int) [][]float64 {
	return dft.SlidingFeatures(series, window, k)
}

// SubsequenceMatches returns the start offsets of every length-len(query)
// window of series within eps (Euclidean) of query, using the sliding-DFT
// filter with k coefficients plus exact refinement — no false dismissals.
func SubsequenceMatches(series, query []float64, k int, eps float64) []int {
	return dft.SubsequenceMatches(series, query, k, eps)
}

// NeighborIndex answers ε-range and k-nearest-neighbor queries over one
// dataset, point at a time: use it when the workload is lookups rather
// than a full join. It holds a k-d tree over the dataset's first m points
// (those present when the tree was built) and scans the rest, the tail,
// at query time with the same distance predicate. Every answer therefore
// covers all the points the dataset holds when the query runs, including
// points appended after the index was built: appends make queries slower
// (the scan is linear in Tail), never wrong. Build a new index over the
// grown dataset to fold the tail into the tree. Queries may run
// concurrently with each other, not with appends to the dataset.
type NeighborIndex struct {
	ds *Dataset
	t  *kdtree.Tree // over ds's first m points; nil when m == 0
	m  int
}

// NewNeighborIndex builds an index over every point ds holds now. An
// empty dataset gets an index with no tree, which scans.
func NewNeighborIndex(ds *Dataset) *NeighborIndex {
	x := &NeighborIndex{ds: ds, m: ds.Len()}
	if x.m > 0 {
		x.t = kdtree.Build(ds.internal(), kdtree.NeighborLeafSize)
	}
	return x
}

// Extend returns an index over ds that reuses x's tree, in O(1). ds must
// hold the tree's points as its prefix — a grown copy or snapshot of x's
// dataset — and its points past them are scanned as the tail. The tree
// then reads its points from ds too, so x's dataset need not outlive x.
// Extend checks the shape, not the coordinates: it panics when ds is
// shorter than x's dataset or has another dimensionality.
func (x *NeighborIndex) Extend(ds *Dataset) *NeighborIndex {
	if ds.Len() < x.ds.Len() || ds.Dims() != x.ds.Dims() {
		panic(fmt.Sprintf("simjoin: extending a neighbor index over %d %d-dim points to %d %d-dim points", x.ds.Len(), x.ds.Dims(), ds.Len(), ds.Dims()))
	}
	y := &NeighborIndex{ds: ds, m: x.m}
	if x.t != nil {
		y.t = x.t.On(ds.internal())
	}
	return y
}

// Tail returns how many of the dataset's points lie past the tree and are
// scanned by every query.
func (x *NeighborIndex) Tail() int { return x.ds.Len() - x.m }

func (x *NeighborIndex) checkQuery(q []float64) {
	if len(q) != x.ds.Dims() {
		panic(fmt.Sprintf("simjoin: query of dimension %d against a %d-dim neighbor index", len(q), x.ds.Dims()))
	}
}

// Range returns the indexes of every point within eps of q under the given
// metric: the tree's hits over the prefix, then the tail's in index order.
func (x *NeighborIndex) Range(q []float64, metric Metric, eps float64) []int {
	x.checkQuery(q)
	if !(eps >= 0) {
		return nil
	}
	var out []int
	m := metric.internal()
	if x.t != nil {
		x.t.Range(q, m, eps, nil, func(i int) { out = append(out, i) })
	}
	// The tail is contiguous, so it takes the stride-1 kernel; its test is
	// the one the tree's leaves run (same kernel body, same threshold).
	in := x.ds.internal()
	vec.ProbeRangeFlat(m, vec.Flat{Dims: in.Dims(), Data: q}, 0, in.FlatView(), x.m, in.Len(), vec.Threshold(m, eps),
		func(j int32) { out = append(out, int(j)) })
	return out
}

// Neighbor is one k-nearest-neighbor result: a point index and its
// distance from the query.
type Neighbor struct {
	Index int
	Dist  float64
}

// KNN returns the k nearest points to q in ascending distance order (ties
// broken by index). The tree's search and the tail's scan fill one heap,
// so the answer is the k smallest by (distance, index) over all points.
// It panics if k < 1.
func (x *NeighborIndex) KNN(q []float64, k int, metric Metric) []Neighbor {
	x.checkQuery(q)
	if k < 1 {
		panic(fmt.Sprintf("simjoin: KNN with k=%d", k))
	}
	in := x.ds.internal()
	n := in.Len()
	if n == 0 {
		return []Neighbor{}
	}
	// k comes off the wire: never reserve more than there are points.
	best := join.NewMaxHeap(min(k, n))
	m := metric.internal()
	if x.t != nil {
		x.t.Nearest(q, m, best, nil)
	}
	for j := x.m; j < n; j++ {
		best.Push(join.Neighbor{Index: j, Dist: vec.Dist(m, q, in.Point(j))})
	}
	return toPublicNeighbors(best.Sorted())
}

func toPublicNeighbors(in []join.Neighbor) []Neighbor {
	out := make([]Neighbor, len(in))
	for i, n := range in {
		out[i] = Neighbor{Index: n.Index, Dist: n.Dist}
	}
	return out
}

// KNNJoin returns, for every point of a, its k nearest neighbors in b in
// ascending distance order, ties broken by index: row i is what
// NewNeighborIndex(b).KNN(a.Point(i), k, metric) answers. One index over
// b serves every query, spread across workers goroutines (≤ 0 uses one
// per CPU). It returns an error on shape mismatches instead of
// panicking, matching the other public entry points.
func KNNJoin(a, b *Dataset, k, workers int, metric Metric) ([][]Neighbor, error) {
	if a.Dims() != b.Dims() {
		return nil, fmt.Errorf("simjoin: KNN join over %d-dim and %d-dim sets", a.Dims(), b.Dims())
	}
	if b.Len() == 0 {
		return nil, fmt.Errorf("simjoin: KNN join against an empty set")
	}
	if k < 1 {
		return nil, fmt.Errorf("simjoin: KNN join with k=%d", k)
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	x := NewNeighborIndex(b)
	out := make([][]Neighbor, a.Len())
	workers = min(workers, a.Len())
	join.Spread(workers, func(w int) {
		for i := w; i < len(out); i += workers {
			out[i] = x.KNN(a.Point(i), k, metric)
		}
	})
	return out, nil
}
