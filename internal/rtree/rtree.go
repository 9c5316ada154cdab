// Package rtree implements a packed R-tree — points sorted along the
// Z-order curve and packed bottom-up — and the synchronized-traversal
// similarity join over it (Brinkhoff-style). It is a frozen paper
// comparator: it stands in for the disk-era spatial-access-method baseline
// of the evaluation, and it does nothing but join. The original
// comparison used R+ trees, whose selling point is overlap-free node
// regions; a bulk-loaded packed R-tree has near-zero overlap at build time
// and identical candidate-pruning structure, which is the behaviour the
// experiments depend on (see DESIGN.md for the substitution record).
//
// The join experiments highlight the method's high-dimensional weakness:
// node boxes inflate with dimensionality until MinDist pruning stops
// rejecting anything, so the tree degenerates toward a blocked nested loop.
package rtree

import (
	"fmt"

	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

const (
	// DefaultMaxEntries is the node capacity used by the evaluation.
	DefaultMaxEntries = 32
)

// Tree is an immutable packed R-tree over one dataset, built by BulkLoad.
type Tree struct {
	ds         *dataset.Dataset
	root       *node
	maxEntries int
	minEntries int
	height     int // leaf level = 1
	nodes      int
}

// entry is one slot of a node: a child subtree for internal nodes, a point
// index for leaves.
type entry struct {
	box   vec.Box
	child *node // nil in leaf entries
	idx   int32 // point index, leaf entries only
}

type node struct {
	leaf    bool
	entries []entry
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return t.count(t.root) }

func (t *Tree) count(n *node) int {
	if n.leaf {
		return len(n.entries)
	}
	total := 0
	for _, e := range n.entries {
		total += t.count(e.child)
	}
	return total
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return t.nodes }

// Bounds returns the root bounding box; the second result is false for an
// empty tree.
func (t *Tree) Bounds() (vec.Box, bool) {
	if len(t.root.entries) == 0 {
		return vec.Box{}, false
	}
	return nodeBox(t.root), true
}

func nodeBox(n *node) vec.Box {
	b := n.entries[0].box.Clone()
	for _, e := range n.entries[1:] {
		b.ExtendBox(e.box)
	}
	return b
}

// checkInvariants validates the R-tree structure for tests: uniform leaf
// depth, box containment, fill factors, and exact point coverage.
func (t *Tree) checkInvariants() error {
	n := t.Len()
	seen := make([]bool, t.ds.Len())
	var leafDepth int
	var rec func(nd *node, depth int, isRoot bool) error
	rec = func(nd *node, depth int, isRoot bool) error {
		if nd.leaf {
			if leafDepth == 0 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
		}
		if !isRoot && (len(nd.entries) < t.minEntries || len(nd.entries) > t.maxEntries) {
			return fmt.Errorf("rtree: node with %d entries outside [%d, %d]", len(nd.entries), t.minEntries, t.maxEntries)
		}
		if isRoot && len(nd.entries) > t.maxEntries {
			return fmt.Errorf("rtree: root overflow (%d entries)", len(nd.entries))
		}
		for _, e := range nd.entries {
			if nd.leaf {
				i := int(e.idx)
				if seen[i] {
					return fmt.Errorf("rtree: point %d appears twice", i)
				}
				seen[i] = true
				if !e.box.Contains(t.ds.Point(i)) {
					return fmt.Errorf("rtree: leaf entry box misses its point %d", i)
				}
				continue
			}
			cb := nodeBox(e.child)
			if !e.box.ContainsBox(cb) {
				return fmt.Errorf("rtree: entry box %v does not contain child box %v", e.box, cb)
			}
			if err := rec(e.child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root, 1, true); err != nil {
		return err
	}
	if leafDepth != 0 && leafDepth != t.height {
		return fmt.Errorf("rtree: recorded height %d but leaves at depth %d", t.height, leafDepth)
	}
	count := 0
	for _, s := range seen {
		if s {
			count++
		}
	}
	if count != n {
		return fmt.Errorf("rtree: %d distinct points indexed, tree reports %d", count, n)
	}
	return nil
}
