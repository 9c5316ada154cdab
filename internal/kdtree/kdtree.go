// Package kdtree implements a main-memory k-d tree with ε-range queries and
// the similarity join built on them (one range query per point). It is the
// classic main-memory spatial-access-method baseline: excellent in low
// dimensions, but its per-node single-dimension split prunes less and less
// of the search volume as dimensionality grows, which the dimensionality
// experiment (F2) demonstrates against the ε-kdB tree.
package kdtree

import (
	"fmt"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// DefaultLeafSize is the build-time leaf capacity used by the evaluation.
const DefaultLeafSize = 16

// NeighborLeafSize is the leaf capacity of a tree that answers point
// queries (range and k-NN) rather than joins: twice DefaultLeafSize. On
// 40 000 ten-blob points at d = 8 it halves the tree's memory (2.1 →
// 1.1 MB) and is faster on all three operations a served index runs:
// build 25.9 → 22.0 ms, range at ε = 0.1 73 → 64 µs, 10-NN 51 → 49 µs.
const NeighborLeafSize = 32

// Tree is an immutable k-d tree over one dataset.
type Tree struct {
	ds       *dataset.Dataset
	root     *node
	leafSize int
	nodes    int
}

type node struct {
	box         vec.Box // bounding box of the points below this node
	dim         int     // split dimension; -1 marks a leaf
	val         float64 // split value (points with coord < val go left)
	left, right *node
	pts         []int32 // leaf points (indexes into the dataset)
}

// Build constructs a k-d tree over ds with the given leaf capacity (≤ 0
// selects DefaultLeafSize). It panics on an empty dataset.
func Build(ds *dataset.Dataset, leafSize int) *Tree {
	if ds.Len() == 0 {
		panic("kdtree: building over an empty dataset")
	}
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	idx := make([]int32, ds.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	t := &Tree{ds: ds, leafSize: leafSize}
	t.root = t.build(idx)
	return t
}

// build recursively splits idx (which it owns and may reorder) and returns
// the subtree root.
func (t *Tree) build(idx []int32) *node {
	t.nodes++
	box := vec.BoundingBox(len(idx), func(i int) []float64 { return t.ds.Point(int(idx[i])) })
	n := &node{box: box, dim: -1}
	if len(idx) <= t.leafSize {
		n.pts = idx
		return n
	}
	// Split the widest dimension at the median. If every dimension is
	// degenerate (all points coincident) the node must stay a leaf no
	// matter its size — there is nothing to split.
	dim, extent := 0, -1.0
	for k := 0; k < t.ds.Dims(); k++ {
		if e := box.Hi[k] - box.Lo[k]; e > extent {
			dim, extent = k, e
		}
	}
	if extent == 0 {
		n.pts = idx
		return n
	}
	mid := len(idx) / 2
	t.selectNth(idx, mid, dim)
	data, dims := t.ds.Flat(), t.ds.Dims()
	val := data[int(idx[mid])*dims+dim]
	// If val is the dimension's minimum, splitting at it would leave the
	// "< val" side empty; lift it to the next distinct value (one exists
	// because extent > 0).
	if val == box.Lo[dim] {
		next := box.Hi[dim]
		for _, i := range idx {
			if v := data[int(i)*dims+dim]; v > val && v < next {
				next = v
			}
		}
		val = next
	}
	// Partition explicitly: quickselect leaves equal keys scattered, so a
	// boundary derived from positions alone would let coord == val points
	// leak into the left (strictly-less) side.
	lo := 0
	for i := range idx {
		if data[int(idx[i])*dims+dim] < val {
			idx[lo], idx[i] = idx[i], idx[lo]
			lo++
		}
	}
	n.dim = dim
	n.val = val
	n.left = t.build(idx[:lo])
	n.right = t.build(idx[lo:])
	return n
}

// selectNth partially sorts idx so that idx[nth] holds the element of rank
// nth by coordinate dim, with smaller elements before it and greater-or-
// equal after (Hoare quickselect with middle pivot).
func (t *Tree) selectNth(idx []int32, nth, dim int) {
	data, dims := t.ds.Flat(), t.ds.Dims()
	lo, hi := 0, len(idx)-1
	for lo < hi {
		pivot := data[int(idx[(lo+hi)/2])*dims+dim]
		i, j := lo, hi
		for i <= j {
			for data[int(idx[i])*dims+dim] < pivot {
				i++
			}
			for data[int(idx[j])*dims+dim] > pivot {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if nth <= j {
			hi = j
		} else if nth >= i {
			lo = i
		} else {
			return
		}
	}
}

// On returns the tree reading its points from ds, a grown snapshot of its
// dataset that holds the tree's points at the same indexes. The nodes are
// shared, not copied, and t is unchanged. It panics when ds is shorter or
// of another dimensionality; it does not compare coordinates.
func (t *Tree) On(ds *dataset.Dataset) *Tree {
	if ds.Len() < t.ds.Len() || ds.Dims() != t.ds.Dims() {
		panic(fmt.Sprintf("kdtree: moving a tree over %d %d-dim points onto %d %d-dim points", t.ds.Len(), t.ds.Dims(), ds.Len(), ds.Dims()))
	}
	c := *t
	c.ds = ds
	return &c
}

// Size returns the number of tree nodes.
func (t *Tree) Size() int { return t.nodes }

// Depth returns the height of the tree (1 for a single leaf).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	if n.dim < 0 {
		return 1
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Range visits every point index whose distance to q is ≤ eps under the
// given metric. Counters (may be nil) receive node-visit and distance-test
// charges.
func (t *Tree) Range(q []float64, metric vec.Metric, eps float64, counters *stats.Counters, visit func(i int)) {
	if len(q) != t.ds.Dims() {
		panic(fmt.Sprintf("kdtree: query of dimension %d against %d-dim tree", len(q), t.ds.Dims()))
	}
	th := vec.Threshold(metric, eps)
	f := t.ds.FlatView()
	emit := func(yi int32) { visit(int(yi)) }
	var nodesVisited, comps int64
	var rec func(n *node)
	rec = func(n *node) {
		nodesVisited++
		if n.dim < 0 {
			c, _ := vec.ProbeQueryFlat(metric, q, f, n.pts, th, emit)
			comps += c
			return
		}
		if n.left.box.MinDistPoint(metric, q) <= eps {
			rec(n.left)
		}
		if n.right.box.MinDistPoint(metric, q) <= eps {
			rec(n.right)
		}
	}
	if t.root.box.MinDistPoint(metric, q) <= eps {
		rec(t.root)
	}
	if counters != nil {
		counters.AddNodeVisits(nodesVisited)
		counters.AddDistComps(comps)
		counters.AddCandidates(comps)
	}
}

// SelfJoin reports every unordered pair within ε once (as i < j), using one
// range query per point over a tree built with the default leaf size.
func SelfJoin(ds *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	if ds.Len() < 2 {
		return
	}
	start := time.Now()
	t := Build(ds, 0)
	opt.Timing().AddBuild(time.Since(start))
	t.SelfJoin(opt, newSink)
}

// SelfJoin runs the self-join on an already-built tree, its per-point range
// queries strided over opt.WorkerCount() workers; newSink supplies each
// worker's private sink. Each unordered pair is owned by its smaller index,
// so none is reported twice.
func (t *Tree) SelfJoin(opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	n := t.ds.Len()
	if n < 2 {
		return
	}
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	workers := min(opt.WorkerCount(), n)
	join.Spread(workers, func(w int) {
		sink := newSink()
		var res int64
		for i := w; i < n; i += workers {
			t.Range(t.ds.Point(i), opt.Metric, opt.Eps, opt.Counters, func(j int) {
				if j > i { // each unordered pair once
					res++
					sink.Emit(i, j)
				}
			})
		}
		opt.Stats().AddResults(res)
	})
}

// Join reports every (a-index, b-index) pair within ε by querying a tree
// built over b with every point of a. opt.WorkerCount() workers stride over
// a's points, each into a private sink from newSink; every (a, b) pair is
// owned by its a-point, so none is reported twice.
func Join(a, b *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	if a.Len() == 0 || b.Len() == 0 {
		return
	}
	start := time.Now()
	t := Build(b, 0)
	opt.Timing().AddBuild(time.Since(start))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	workers := min(opt.WorkerCount(), a.Len())
	join.Spread(workers, func(w int) {
		sink := newSink()
		var res int64
		for i := w; i < a.Len(); i += workers {
			t.Range(a.Point(i), opt.Metric, opt.Eps, opt.Counters, func(j int) {
				res++
				sink.Emit(i, j)
			})
		}
		opt.Stats().AddResults(res)
	})
}

// checkInvariants verifies structural invariants for tests: every leaf
// point lies inside its node box, every box inside its parent's, split
// separation holds, and every dataset index appears exactly once.
func (t *Tree) checkInvariants() error {
	seen := make([]bool, t.ds.Len())
	var rec func(n *node) error
	rec = func(n *node) error {
		if n.dim < 0 {
			if len(n.pts) == 0 {
				return fmt.Errorf("kdtree: empty leaf")
			}
			for _, i := range n.pts {
				if seen[i] {
					return fmt.Errorf("kdtree: point %d in two leaves", i)
				}
				seen[i] = true
				if !n.box.Contains(t.ds.Point(int(i))) {
					return fmt.Errorf("kdtree: point %d outside its leaf box", i)
				}
			}
			return nil
		}
		if !n.box.ContainsBox(n.left.box) || !n.box.ContainsBox(n.right.box) {
			return fmt.Errorf("kdtree: child box escapes parent")
		}
		if n.left.box.Hi[n.dim] >= n.val {
			return fmt.Errorf("kdtree: split dim %d not separated (left hi %g, val %g)", n.dim, n.left.box.Hi[n.dim], n.val)
		}
		if n.right.box.Lo[n.dim] < n.val {
			return fmt.Errorf("kdtree: split dim %d not separated (right lo %g, val %g)", n.dim, n.right.box.Lo[n.dim], n.val)
		}
		if err := rec(n.left); err != nil {
			return err
		}
		return rec(n.right)
	}
	if err := rec(t.root); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("kdtree: point %d missing from every leaf", i)
		}
	}
	return nil
}
