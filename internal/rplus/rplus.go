// Package rplus implements a point R+-tree: an M-way spatial tree whose
// sibling regions are disjoint (no overlap, unlike the R-tree), obtained by
// recursively slicing the widest dimension of each node's point set into
// fan-out-many equal-count slabs, then keeping tight bounding boxes per
// child. For point data this captures exactly what made the R+ tree the
// strongest disk-era baseline of the original evaluation: a search or join
// never has to follow two children for one location.
//
// The similarity join is a synchronized traversal like the R-tree's, but
// because regions are disjoint the candidate explosion in high dimensions
// comes only from boxes being within ε of each other — the best a
// box-pruned method can do, and still not enough at high d, which is the
// comparison the evaluation draws against the ε-kdB tree.
package rplus

import (
	"fmt"
	"sort"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

const (
	// DefaultFanOut is the children per internal node.
	DefaultFanOut = 8
	// DefaultLeafSize is the leaf capacity.
	DefaultLeafSize = 32
)

// Tree is an immutable point R+-tree over one dataset.
type Tree struct {
	ds       *dataset.Dataset
	root     *node
	fanOut   int
	leafSize int
	nodes    int
}

type node struct {
	box      vec.Box
	children []*node // nil for leaves
	pts      []int32 // leaf points
}

// Build constructs an R+-tree over ds (fanOut/leafSize ≤ 0 select the
// defaults). It panics on an empty dataset.
func Build(ds *dataset.Dataset, fanOut, leafSize int) *Tree {
	if ds.Len() == 0 {
		panic("rplus: building over an empty dataset")
	}
	if fanOut <= 1 {
		fanOut = DefaultFanOut
	}
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	idx := make([]int32, ds.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	t := &Tree{ds: ds, fanOut: fanOut, leafSize: leafSize}
	t.root = t.build(idx)
	return t
}

// build recursively slabs idx (which it owns and may reorder).
func (t *Tree) build(idx []int32) *node {
	t.nodes++
	box := vec.BoundingBox(len(idx), func(i int) []float64 { return t.ds.Point(int(idx[i])) })
	n := &node{box: box}
	if len(idx) <= t.leafSize {
		n.pts = idx
		return n
	}
	// Slice the widest dimension into fanOut equal-count slabs. Sorting the
	// slice is O(m log m) per level — simple, and the build is a small
	// fraction of join time at this structure's operating points.
	dim, extent := 0, -1.0
	for k := 0; k < t.ds.Dims(); k++ {
		if e := box.Hi[k] - box.Lo[k]; e > extent {
			dim, extent = k, e
		}
	}
	if extent == 0 {
		// All points coincide; nothing can separate them.
		n.pts = idx
		return n
	}
	sort.Slice(idx, func(a, b int) bool {
		return t.ds.Point(int(idx[a]))[dim] < t.ds.Point(int(idx[b]))[dim]
	})
	val := func(i int) float64 { return t.ds.Point(int(idx[i]))[dim] }
	slabs := t.fanOut
	if slabs > len(idx) {
		slabs = len(idx)
	}
	// Cut at value-run starts nearest the ideal equal-count boundaries: a
	// run of equal coordinates must never be split across slabs
	// (disjointness of sibling regions is the structure's defining
	// invariant), and because extent > 0 guarantees at least one run start
	// strictly inside the slice, the first cut always succeeds — the node
	// always gets ≥ 2 children and the recursion always shrinks.
	bounds := make([]int, 0, slabs-1)
	prev := 0
	for s := 1; s < slabs; s++ {
		cut := len(idx) * s / slabs
		if cut <= prev {
			cut = prev + 1
		}
		if cut >= len(idx) {
			break
		}
		fwd := cut
		for fwd < len(idx) && val(fwd) == val(fwd-1) {
			fwd++
		}
		back := cut
		for back > prev && val(back) == val(back-1) {
			back--
		}
		switch {
		case back > prev && (fwd >= len(idx) || cut-back <= fwd-cut):
			cut = back
		case fwd < len(idx):
			cut = fwd
		default:
			continue // no valid boundary left for this slab
		}
		bounds = append(bounds, cut)
		prev = cut
	}
	prev = 0
	for _, b := range append(bounds, len(idx)) {
		if b > prev {
			n.children = append(n.children, t.build(idx[prev:b:b]))
			prev = b
		}
	}
	return n
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return t.nodes }

// Bounds returns the root bounding box.
func (t *Tree) Bounds() vec.Box { return t.root.box }

// SelfJoin reports every unordered pair within ε once, building a tree
// with default parameters.
func SelfJoin(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	if ds.Len() < 2 {
		return
	}
	start := time.Now()
	t := Build(ds, 0, 0)
	opt.Timing().AddBuild(time.Since(start))
	t.SelfJoin(opt, sink)
}

// SelfJoin runs the synchronized-traversal self-join on a built tree.
func (t *Tree) SelfJoin(opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	c := opt.Stats()
	th := opt.Threshold()
	var cand, res, visits int64
	var rec func(a, b *node)
	rec = func(a, b *node) {
		visits++
		same := a == b
		switch {
		case a.children == nil && b.children == nil:
			for i, ia := range a.pts {
				pa := t.ds.Point(int(ia))
				jStart := 0
				if same {
					jStart = i + 1
				}
				for _, ib := range b.pts[jStart:] {
					cand++
					if vec.Within(opt.Metric, pa, t.ds.Point(int(ib)), th) {
						res++
						sink.Emit(int(ia), int(ib))
					}
				}
			}
		case a.children == nil: // b internal
			for _, cb := range b.children {
				if cb.box.WithinDist(opt.Metric, a.box, th) {
					rec(a, cb)
				}
			}
		case b.children == nil: // a internal
			for _, ca := range a.children {
				if ca.box.WithinDist(opt.Metric, b.box, th) {
					rec(ca, b)
				}
			}
		default:
			if same {
				for i, ca := range a.children {
					rec(ca, ca)
					for _, cb := range a.children[i+1:] {
						if ca.box.WithinDist(opt.Metric, cb.box, th) {
							rec(ca, cb)
						}
					}
				}
				return
			}
			for _, ca := range a.children {
				for _, cb := range b.children {
					if ca.box.WithinDist(opt.Metric, cb.box, th) {
						rec(ca, cb)
					}
				}
			}
		}
	}
	rec(t.root, t.root)
	c.AddCandidates(cand)
	c.AddDistComps(cand)
	c.AddResults(res)
	c.AddNodeVisits(visits)
}

// Join reports every (a-index, b-index) pair within ε across two datasets.
func Join(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	if a.Len() == 0 || b.Len() == 0 {
		return
	}
	start := time.Now()
	ta := Build(a, 0, 0)
	tb := Build(b, 0, 0)
	opt.Timing().AddBuild(time.Since(start))
	JoinTrees(ta, tb, opt, sink)
}

// JoinTrees runs the synchronized-traversal join over two built trees.
func JoinTrees(ta, tb *Tree, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	c := opt.Stats()
	th := opt.Threshold()
	var cand, res, visits int64
	var rec func(a, b *node)
	rec = func(a, b *node) {
		visits++
		switch {
		case a.children == nil && b.children == nil:
			for _, ia := range a.pts {
				pa := ta.ds.Point(int(ia))
				for _, ib := range b.pts {
					cand++
					if vec.Within(opt.Metric, pa, tb.ds.Point(int(ib)), th) {
						res++
						sink.Emit(int(ia), int(ib))
					}
				}
			}
		case a.children == nil:
			for _, cb := range b.children {
				if cb.box.WithinDist(opt.Metric, a.box, th) {
					rec(a, cb)
				}
			}
		default:
			for _, ca := range a.children {
				if ca.box.WithinDist(opt.Metric, b.box, th) {
					rec(ca, b)
				}
			}
		}
	}
	if ta.root.box.WithinDist(opt.Metric, tb.root.box, th) {
		rec(ta.root, tb.root)
	}
	c.AddCandidates(cand)
	c.AddDistComps(cand)
	c.AddResults(res)
	c.AddNodeVisits(visits)
}

// checkInvariants validates disjointness, containment and coverage for
// tests.
func (t *Tree) checkInvariants() error {
	seen := make([]bool, t.ds.Len())
	var rec func(n *node) error
	rec = func(n *node) error {
		if n.children == nil {
			if len(n.pts) == 0 {
				return fmt.Errorf("rplus: empty leaf")
			}
			for _, i := range n.pts {
				if seen[i] {
					return fmt.Errorf("rplus: point %d in two leaves", i)
				}
				seen[i] = true
				if !n.box.Contains(t.ds.Point(int(i))) {
					return fmt.Errorf("rplus: point %d outside its leaf box", i)
				}
			}
			return nil
		}
		if len(n.children) < 2 {
			return fmt.Errorf("rplus: internal node with %d children", len(n.children))
		}
		for i, a := range n.children {
			if !n.box.ContainsBox(a.box) {
				return fmt.Errorf("rplus: child box escapes parent")
			}
			for _, b := range n.children[i+1:] {
				if a.box.OverlapVolume(b.box) > 0 {
					return fmt.Errorf("rplus: sibling regions overlap: %v and %v", a.box, b.box)
				}
			}
			if err := rec(a); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("rplus: point %d missing", i)
		}
	}
	return nil
}
