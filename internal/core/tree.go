// Package core implements the ε-kdB tree, the paper's primary contribution:
// a main-memory index built for one specific similarity threshold ε that
// splits one dimension per level into stripes of width ε. Because stripe
// width equals ε, every join candidate for a node lies in the node itself or
// one of its two adjacent sibling stripes — there is no backtracking and no
// region overlap, which is what lets the structure stay effective where
// R-trees and grids collapse under dimensionality.
//
// The join descends two trees (or one tree against itself) in lockstep,
// pairing each stripe only with itself and its immediate neighbors; at the
// leaves, point lists kept sorted on a designated sweep dimension are merged
// with an ε-window sweep before the final early-exit distance test.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

// DefaultLeafThreshold is the build-time leaf capacity used by the
// evaluation (the F4 experiment sweeps it).
const DefaultLeafThreshold = 64

// Config holds the ε-kdB tree build knobs.
type Config struct {
	// LeafThreshold stops splitting once a node holds this few points
	// (≤ 0 selects DefaultLeafThreshold). Splitting also stops once every
	// dimension has been used.
	LeafThreshold int
	// BiasedSplit orders the split dimensions by decreasing extent instead
	// of natural order, so wide (selective) dimensions are consumed first.
	// This is the biased-splitting optimization the ablation (F4/T2)
	// examines.
	BiasedSplit bool
}

// Tree is an ε-kdB tree over one dataset, valid only for the ε it was built
// with.
type Tree struct {
	ds            *dataset.Dataset
	eps           float64
	box           vec.Box // stripe-grid frame (shared across trees for joins)
	order         []int   // dimension split order; order[depth] splits level depth
	stripes       []int   // stripe count per dimension (indexed by dimension)
	sweepDim      int     // the dimension every leaf list is sorted on
	leafThreshold int
	root          *node
	scratch       []int32 // per-level stripe cache, reused across the build
	// countScratch[depth] holds the stripe counters of the build call at
	// that depth: they stay live across its recursive calls, so they are
	// per depth where the stripe cache is shared.
	countScratch [][]int32

	nodes, leaves, maxDepth int
}

// node is one ε-kdB tree node. Internal nodes split dimension
// tree.order[depth] into stripes of width ε; children[s] covers stripe s
// and is nil when the stripe is empty. Leaves hold point indexes sorted by
// the tree's sweep dimension.
type node struct {
	children []*node
	pts      []int32
}

func (n *node) leaf() bool { return n.children == nil }

// Build constructs an ε-kdB tree over ds for threshold eps. An empty
// dataset yields an empty (still joinable) tree.
func Build(ds *dataset.Dataset, eps float64, cfg Config) *Tree {
	if ds.Len() == 0 {
		return newTree(ds, eps, vec.NewEmptyBox(ds.Dims()), cfg)
	}
	return BuildWithBox(ds, eps, ds.Bounds(), cfg)
}

// BuildWithBox is Build with an explicit stripe-grid frame. Two trees can
// be joined only if built with the same eps and the same box (JoinTrees
// verifies this); pass the joint bounding box of both datasets.
func BuildWithBox(ds *dataset.Dataset, eps float64, box vec.Box, cfg Config) *Tree {
	if !(eps > 0) {
		panic(fmt.Sprintf("core: eps must be positive, got %g", eps))
	}
	if box.Dims() != ds.Dims() {
		panic(fmt.Sprintf("core: box of dimension %d for %d-dim dataset", box.Dims(), ds.Dims()))
	}
	t := newTree(ds, eps, box, cfg)
	if ds.Len() == 0 {
		return t
	}
	idx := make([]int32, ds.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = t.build(idx, 0)
	return t
}

func newTree(ds *dataset.Dataset, eps float64, box vec.Box, cfg Config) *Tree {
	if !(eps > 0) {
		panic(fmt.Sprintf("core: eps must be positive, got %g", eps))
	}
	leaf := cfg.LeafThreshold
	if leaf <= 0 {
		leaf = DefaultLeafThreshold
	}
	d := ds.Dims()
	t := &Tree{
		ds:            ds,
		eps:           eps,
		box:           box,
		order:         make([]int, d),
		stripes:       make([]int, d),
		leafThreshold: leaf,
		countScratch:  make([][]int32, d), // depth d is always a leaf
	}
	for k := 0; k < d; k++ {
		t.order[k] = k
		ext := box.Hi[k] - box.Lo[k]
		s := 1
		if ext > 0 {
			s = int(math.Ceil(ext / eps))
			if s < 1 {
				s = 1
			}
		}
		t.stripes[k] = s
	}
	if cfg.BiasedSplit {
		sort.SliceStable(t.order, func(a, b int) bool {
			ea := box.Hi[t.order[a]] - box.Lo[t.order[a]]
			eb := box.Hi[t.order[b]] - box.Lo[t.order[b]]
			return ea > eb
		})
	}
	// Leaves sweep on the last dimension in split order: it is the one
	// least likely to be consumed by stripes, so the sweep window filters a
	// dimension the tree has (usually) not filtered yet.
	t.sweepDim = t.order[d-1]
	return t
}

// build recursively stripes idx (which it owns) and returns the subtree.
func (t *Tree) build(idx []int32, depth int) *node {
	t.nodes++
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	if len(idx) <= t.leafThreshold || depth == t.ds.Dims() {
		return t.makeLeaf(idx)
	}
	dim := t.order[depth]
	s := t.stripes[dim]
	// In-place stripe partition (American-flag style): compute each
	// element's stripe once into a scratch buffer shared across the whole
	// build, count occupancy, then swap elements (and their cached
	// stripes) directly into their stripe regions. Unstable, which is fine
	// — leaves re-sort on the sweep dimension anyway — and it replaces the
	// per-stripe append churn of the naive bucketing with zero per-node
	// point allocations.
	if cap(t.scratch) < len(idx) {
		t.scratch = make([]int32, len(idx))
	}
	str := t.scratch[:len(idx)]
	if t.countScratch[depth] == nil {
		t.countScratch[depth] = make([]int32, 2*s+1) // s is fixed per depth
	}
	counts, cur := t.countScratch[depth][:s+1], t.countScratch[depth][s+1:]
	clear(counts)
	data, dims := t.ds.Flat(), t.ds.Dims()
	for p, i := range idx {
		st := int32(t.stripeOf(data[int(i)*dims+dim], dim))
		str[p] = st
		counts[st+1]++
	}
	for st := 0; st < s; st++ {
		counts[st+1] += counts[st] // counts[st] = start of stripe st's region
	}
	copy(cur, counts[:s])
	for st := 0; st < s; st++ {
		end := counts[st+1]
		for pos := cur[st]; pos < end; pos = cur[st] {
			vst := str[pos]
			if vst == int32(st) {
				cur[st]++
				continue
			}
			dst := cur[vst]
			idx[pos], idx[dst] = idx[dst], idx[pos]
			str[pos], str[dst] = str[dst], str[pos]
			cur[vst]++
		}
	}
	n := &node{children: make([]*node, s)}
	for st := 0; st < s; st++ {
		lo, hi := counts[st], counts[st+1]
		if hi > lo {
			n.children[st] = t.build(idx[lo:hi:hi], depth+1)
		}
	}
	return n
}

func (t *Tree) makeLeaf(idx []int32) *node {
	t.leaves++
	// Fetched per call: Append can realloc the buffer between dynamic
	// inserts, so the view must not be cached across tree operations.
	data, dims, sd := t.ds.Flat(), t.ds.Dims(), t.sweepDim
	// slices.SortFunc instantiates a concrete int32 sort — unlike
	// sort.Slice's reflection path, which showed up in join profiles.
	slices.SortFunc(idx, func(a, b int32) int {
		va, vb := data[int(a)*dims+sd], data[int(b)*dims+sd]
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return 0
	})
	return &node{pts: idx}
}

// stripeOf maps coordinate v in dimension dim to its stripe index, clamping
// the top edge into the last stripe.
func (t *Tree) stripeOf(v float64, dim int) int {
	s := int((v - t.box.Lo[dim]) / t.eps)
	if s < 0 {
		s = 0
	}
	if max := t.stripes[dim] - 1; s > max {
		s = max
	}
	return s
}

// Eps returns the threshold the tree was built for.
func (t *Tree) Eps() float64 { return t.eps }

// Dataset returns the indexed dataset.
func (t *Tree) Dataset() *dataset.Dataset { return t.ds }

// Nodes returns the number of tree nodes (internal + leaves).
func (t *Tree) Nodes() int { return t.nodes }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return t.leaves }

// MaxDepth returns the deepest node's depth (0 for a root leaf).
func (t *Tree) MaxDepth() int { return t.maxDepth }

// MemoryBytes estimates the heap footprint of the index structure
// (excluding the dataset itself).
func (t *Tree) MemoryBytes() int {
	total := 0
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		total += 48 // node header estimate
		total += 8 * len(n.children)
		total += 4 * len(n.pts)
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(t.root)
	return total
}

// sameFrame reports whether two trees share a joinable frame.
func (t *Tree) sameFrame(o *Tree) bool {
	if t.eps != o.eps || t.sweepDim != o.sweepDim || len(t.order) != len(o.order) {
		return false
	}
	for i := range t.order {
		if t.order[i] != o.order[i] || t.stripes[i] != o.stripes[i] {
			return false
		}
	}
	for i := range t.box.Lo {
		if t.box.Lo[i] != o.box.Lo[i] || t.box.Hi[i] != o.box.Hi[i] {
			return false
		}
	}
	return true
}

// checkInvariants validates the structure for tests: every point appears in
// exactly one leaf, leaf lists are sweep-sorted, every point lies in the
// stripe its ancestors claim, and depth never exceeds the dimensionality.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		if t.ds.Len() != 0 {
			return fmt.Errorf("core: nil root with %d points", t.ds.Len())
		}
		return nil
	}
	seen := make([]bool, t.ds.Len())
	// path[k] = stripe constraint for dimension t.order[k] on the current
	// path (-1 = unconstrained).
	constraint := make([]int, t.ds.Dims())
	var rec func(n *node, depth int) error
	rec = func(n *node, depth int) error {
		if depth > t.ds.Dims() {
			return fmt.Errorf("core: depth %d exceeds dimensionality", depth)
		}
		if n.leaf() {
			prev := math.Inf(-1)
			for _, i := range n.pts {
				if seen[i] {
					return fmt.Errorf("core: point %d in two leaves", i)
				}
				seen[i] = true
				p := t.ds.Point(int(i))
				if p[t.sweepDim] < prev {
					return fmt.Errorf("core: leaf not sorted on sweep dim")
				}
				prev = p[t.sweepDim]
				for k := 0; k < depth; k++ {
					dim := t.order[k]
					if c := constraint[k]; c >= 0 && t.stripeOf(p[dim], dim) != c {
						return fmt.Errorf("core: point %d violates stripe %d in dim %d", i, c, dim)
					}
				}
			}
			return nil
		}
		dim := t.order[depth]
		if len(n.children) != t.stripes[dim] {
			return fmt.Errorf("core: node at depth %d has %d children, want %d stripes", depth, len(n.children), t.stripes[dim])
		}
		for s, c := range n.children {
			if c == nil {
				continue
			}
			constraint[depth] = s
			if err := rec(c, depth+1); err != nil {
				return err
			}
			constraint[depth] = -1
		}
		return nil
	}
	for k := range constraint {
		constraint[k] = -1
	}
	if err := rec(t.root, 0); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("core: point %d missing from every leaf", i)
		}
	}
	return nil
}
