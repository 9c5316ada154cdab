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
//
// A "dimension" here is a column of the tree's key table. That table is the
// dataset's own coordinates — the paper's tree — or, when a one-shot build
// finds raw coordinates no longer filter, distances to data-chosen pivots
// (keys.go). Only stripes, sorts and windows read keys; the distance test
// always runs on the original vectors.
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
	// Metric is the metric the tree's joins and queries will run under
	// (default vec.L2). Only the one-shot builds, Build and BuildPair, read
	// it, and only to compute pivot keys: a tree that took them answers
	// under Metric and every metric it bounds (L∞ ≤ L2 ≤ L1) and refuses
	// the others. BuildWithBox trees answer under any metric.
	Metric vec.Metric

	keys keyMode // forces the key kind; tests only
}

// Tree is an ε-kdB tree over one dataset, valid only for the ε it was built
// with.
type Tree struct {
	ds  *dataset.Dataset
	eps float64
	// piv and pkeys are the pivot-key table (Len() × piv.k); both nil when
	// the keys are the dataset's own coordinates.
	piv   *pivotSet
	pkeys []float64
	// width is the stripe width: ε, plus the pivot keys' rounding slack as
	// of the build.
	width         float64
	box           vec.Box // stripe-grid frame in key space (shared across trees for joins)
	order         []int   // key split order; order[depth] splits level depth
	stripes       []int   // stripe count per key (indexed by key)
	sweepKey      int     // the key every leaf list is sorted on
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

// Build constructs an ε-kdB tree over ds for threshold eps, for joins
// under cfg.Metric. It is the one-shot build: it looks at a sample of ds
// and keys the tree on distances to pivots when those filter at least
// twice as well as raw coordinates (choosePivots), on the coordinates
// themselves otherwise. An empty dataset yields an empty (still joinable)
// tree.
func Build(ds *dataset.Dataset, eps float64, cfg Config) *Tree {
	return buildShared(eps, cfg, ds)[0]
}

// BuildPair is Build for the two trees of a two-set join: the key kind is
// chosen over a ∪ b, pivots are drawn from both, and the trees share the
// pivots and the frame (the joint bounding box in key space), so JoinTrees
// accepts them.
func BuildPair(a, b *dataset.Dataset, eps float64, cfg Config) (ta, tb *Tree) {
	if a.Dims() != b.Dims() {
		panic(fmt.Sprintf("core: pairing a %d-dim tree with a %d-dim tree", a.Dims(), b.Dims()))
	}
	ts := buildShared(eps, cfg, a, b)
	return ts[0], ts[1]
}

// buildShared builds one tree per set over keys and a frame chosen for
// their union.
func buildShared(eps float64, cfg Config, sets ...*dataset.Dataset) []*Tree {
	trees, piv := planShared(eps, cfg, sets)
	if piv != nil {
		// Every table before any tree: the slack covers the largest key.
		tables, finite := make([][]float64, len(sets)), true
		for i, ds := range sets {
			tables[i] = piv.table(ds, eps)
			finite = finite && tables[i] != nil
		}
		if finite {
			box := keyBox(piv.k, tables...)
			for i, ds := range sets {
				trees[i] = newTree(ds, eps, piv, box, cfg)
				trees[i].pkeys = tables[i]
			}
		}
	}
	for _, t := range trees {
		t.buildAll()
	}
	return trees
}

// planShared lays out the raw-keyed trees of sets over their joint
// bounding box, not yet built, and returns with them the pivots a one-shot
// build should key on instead (nil: stay raw).
func planShared(eps float64, cfg Config, sets []*dataset.Dataset) ([]*Tree, *pivotSet) {
	box := vec.NewEmptyBox(sets[0].Dims())
	for _, ds := range sets {
		if ds.Len() > 0 {
			box.ExtendBox(ds.Bounds())
		}
	}
	trees := make([]*Tree, len(sets))
	for i, ds := range sets {
		trees[i] = newTree(ds, eps, nil, box, cfg)
	}
	return trees, choosePivots(sets, eps, trees[0].leafThreshold, trees[0].order, cfg.keys, cfg.Metric)
}

// PlanKeys names the key kind (see Tree.Keys) Build — or BuildPair, given
// two sets — would take, from the same sample by the same rule, without
// building anything. The one case it cannot see is a dataset whose pivot
// distances overflow float64, which the build then keys raw.
func PlanKeys(eps float64, cfg Config, sets ...*dataset.Dataset) string {
	_, piv := planShared(eps, cfg, sets)
	return piv.name()
}

// BuildWithBox builds over raw coordinates inside an explicit stripe-grid
// frame: the build for trees that outlive one join — they answer under any
// metric and take Insert against a frame sized ahead of the data. Two
// trees can be joined only if built with the same eps and the same box
// (JoinTrees verifies this); pass the joint bounding box of both datasets.
func BuildWithBox(ds *dataset.Dataset, eps float64, box vec.Box, cfg Config) *Tree {
	if box.Dims() != ds.Dims() {
		panic(fmt.Sprintf("core: box of dimension %d for %d-dim dataset", box.Dims(), ds.Dims()))
	}
	t := newTree(ds, eps, nil, box, cfg)
	t.buildAll()
	return t
}

// buildAll stripes every point of the dataset into a fresh root.
func (t *Tree) buildAll() {
	if t.ds.Len() == 0 {
		return
	}
	idx := make([]int32, t.ds.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = t.build(idx, 0)
	// The stripe cache is one int32 per point and a tree can outlive its
	// build by far (a Dataset keeps its last one); Insert reallocates it
	// at the size of the subtree it rebuilds.
	t.scratch = nil
}

// newTree lays out the stripe grid over box, the frame in the key space of
// piv (raw coordinates when nil).
func newTree(ds *dataset.Dataset, eps float64, piv *pivotSet, box vec.Box, cfg Config) *Tree {
	if !(eps > 0) {
		panic(fmt.Sprintf("core: eps must be positive, got %g", eps))
	}
	leaf := cfg.LeafThreshold
	if leaf <= 0 {
		leaf = DefaultLeafThreshold
	}
	d, width := box.Dims(), eps
	if piv != nil {
		width += piv.slack
	}
	t := &Tree{
		ds:            ds,
		eps:           eps,
		piv:           piv,
		width:         width,
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
			s = int(math.Ceil(ext / width))
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
	// Leaves sweep on the last key in split order: it is the one least
	// likely to be consumed by stripes, so the sweep window filters a key
	// the tree has (usually) not filtered yet.
	t.sweepKey = t.order[d-1]
	return t
}

// keyTable returns the tree's key table. Fetched per call: Append can
// realloc the dataset's buffer (and Insert the pivot table) between
// dynamic operations, so the view must not be cached across them.
func (t *Tree) keyTable() vec.Keys {
	if t.piv == nil {
		return vec.Keys{Stride: t.ds.Dims(), Data: t.ds.Flat()}
	}
	return vec.Keys{Stride: t.piv.k, Data: t.pkeys}
}

// slack is how far sweep windows are widened beyond the query ε: the
// pivot keys' rounding bound, 0 for raw coordinates.
func (t *Tree) slack() float64 {
	if t.piv == nil {
		return 0
	}
	return t.piv.slack
}

// serves panics unless the tree's keys are 1-Lipschitz under metric m: a
// window on keys that can differ by more than the distance loses pairs.
func (t *Tree) serves(m vec.Metric) {
	if t.piv != nil && !bounds(t.piv.metric, m) {
		panic(fmt.Sprintf("core: tree keyed on %v pivot distances cannot answer under %v (keys bound only L∞ ≤ L2 ≤ L1 upward); build with Config.Metric = %v", t.piv.metric, m, m))
	}
}

// build recursively stripes idx (which it owns) and returns the subtree.
func (t *Tree) build(idx []int32, depth int) *node {
	t.nodes++
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	if len(idx) <= t.leafThreshold || depth == len(t.order) {
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
	keys := t.keyTable()
	for p, i := range idx {
		st := int32(t.stripeOf(keys.Data[int(i)*keys.Stride+dim], dim))
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
	keys := t.keyTable()
	ks, stride := keys.Data[t.sweepKey:], keys.Stride
	// slices.SortFunc instantiates a concrete int32 sort — unlike
	// sort.Slice's reflection path, which showed up in join profiles.
	slices.SortFunc(idx, func(a, b int32) int {
		va, vb := ks[int(a)*stride], ks[int(b)*stride]
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

// stripeOf maps key value v in key dimension dim to its stripe index,
// clamping keys below the frame into stripe 0 and the top edge and beyond
// into the last stripe. The clamps compare before converting, so a key too
// far out for an int still lands in its edge stripe.
func (t *Tree) stripeOf(v float64, dim int) int {
	f := (v - t.box.Lo[dim]) / t.width
	if !(f >= 1) {
		return 0
	}
	if last := t.stripes[dim] - 1; f >= float64(last) {
		return last
	}
	return int(f)
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
// (excluding the dataset itself, including the pivot-key table).
func (t *Tree) MemoryBytes() int {
	total := 8 * cap(t.pkeys)
	if t.piv != nil {
		total += 8 * cap(t.piv.pts)
	}
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
	if t.eps != o.eps || t.piv != o.piv || t.sweepKey != o.sweepKey || len(t.order) != len(o.order) {
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
// stripe its ancestors claim, and depth never exceeds the number of keys.
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
	constraint := make([]int, len(t.order))
	keys := t.keyTable()
	var rec func(n *node, depth int) error
	rec = func(n *node, depth int) error {
		if depth > len(t.order) {
			return fmt.Errorf("core: depth %d exceeds the %d keys", depth, len(t.order))
		}
		if n.leaf() {
			prev := math.Inf(-1)
			for _, i := range n.pts {
				if seen[i] {
					return fmt.Errorf("core: point %d in two leaves", i)
				}
				seen[i] = true
				p := keys.Data[int(i)*keys.Stride:][:keys.Stride]
				if p[t.sweepKey] < prev {
					return fmt.Errorf("core: leaf not sorted on sweep key")
				}
				prev = p[t.sweepKey]
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
