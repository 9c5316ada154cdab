package core

import (
	"fmt"
	"sort"

	"simjoin/internal/dataset"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// Rebase points the tree at ds, a grown snapshot of its dataset: ds must
// hold the tree's points at the same indexes, and Insert can then index
// the points past them. It panics when ds is shorter or of another
// dimensionality; it does not compare coordinates.
func (t *Tree) Rebase(ds *dataset.Dataset) {
	if ds.Len() < t.ds.Len() || ds.Dims() != t.ds.Dims() {
		panic(fmt.Sprintf("core: rebasing a tree over %d %d-dim points onto %d %d-dim points", t.ds.Len(), t.ds.Dims(), ds.Len(), ds.Dims()))
	}
	t.ds = ds
}

// Insert indexes point i of the tree's dataset (which must already contain
// it). The point routes down the existing stripe grid; a leaf that
// overflows the threshold is re-striped in place. Points outside the
// tree's frame are clamped into the edge stripes — that only costs
// selectivity, never correctness, because clamping merges stripes rather
// than separating them.
//
// The tree must have been built with a non-empty frame (Build over a
// non-empty dataset, or BuildWithBox): an empty frame has no stripe grid
// to route through.
func (t *Tree) Insert(i int) {
	if t.box.Empty() {
		panic("core: Insert into a tree with an empty frame; build with BuildWithBox to pre-size the stripe grid")
	}
	if i < 0 || i >= t.ds.Len() {
		panic(fmt.Sprintf("core: Insert of index %d outside dataset of %d points", i, t.ds.Len()))
	}
	if t.piv != nil {
		// Key the new point; rows of points never inserted stay zero and
		// unread. A point beyond every earlier key widens the windows (the
		// stripe grid keeps its width: such points all clamp into the edge
		// stripe).
		k := t.piv.k
		if need := (i + 1) * k; need > len(t.pkeys) {
			t.pkeys = append(t.pkeys, make([]float64, need-len(t.pkeys))...)
		}
		if m := t.piv.row(t.pkeys[i*k:(i+1)*k], t.ds.Point(i)); m > t.piv.maxKey {
			t.piv.maxKey = m
			t.piv.slack = keySlack(t.piv.dims, m, t.eps)
		}
	}
	t.root = t.insert(t.root, int32(i), 0)
}

func (t *Tree) insert(n *node, i int32, depth int) *node {
	if n == nil {
		return t.build([]int32{i}, depth)
	}
	if n.leaf() {
		// Keep the leaf sorted on the sweep key.
		keys := t.keyTable()
		ks, stride := keys.Data[t.sweepKey:], keys.Stride
		v := ks[int(i)*stride]
		at := sort.Search(len(n.pts), func(k int) bool {
			return ks[int(n.pts[k])*stride] > v
		})
		n.pts = append(n.pts, 0)
		copy(n.pts[at+1:], n.pts[at:])
		n.pts[at] = i
		if len(n.pts) > t.leafThreshold && depth < len(t.order) {
			// Re-stripe the overflowing leaf; build re-counts it.
			t.nodes--
			t.leaves--
			return t.build(n.pts, depth)
		}
		return n
	}
	s := t.stripeAt(i, depth)
	n.children[s] = t.insert(n.children[s], i, depth+1)
	return n
}

// stripeAt returns the stripe indexed point i falls in at level depth.
func (t *Tree) stripeAt(i int32, depth int) int {
	keys, dim := t.keyTable(), t.order[depth]
	return t.stripeOf(keys.Data[int(i)*keys.Stride+dim], dim)
}

// Delete removes point index i from the tree, returning whether it was
// indexed. Emptied leaves are unlinked; internal nodes whose stripes all
// empty collapse to nil so joins and queries never descend dead branches.
// The dataset itself is untouched (indexes of other points must stay
// stable), so the deleted point's storage is simply no longer referenced.
func (t *Tree) Delete(i int) bool {
	if t.root == nil {
		return false
	}
	if i < 0 || i >= t.ds.Len() {
		return false
	}
	var removed bool
	t.root, removed = t.remove(t.root, int32(i), 0)
	return removed
}

func (t *Tree) remove(n *node, i int32, depth int) (*node, bool) {
	if n.leaf() {
		for at, idx := range n.pts {
			if idx != i {
				continue
			}
			n.pts = append(n.pts[:at], n.pts[at+1:]...)
			if len(n.pts) == 0 {
				t.nodes--
				t.leaves--
				return nil, true
			}
			return n, true
		}
		return n, false
	}
	s := t.stripeAt(i, depth)
	child := n.children[s]
	if child == nil {
		return n, false
	}
	next, removed := t.remove(child, i, depth+1)
	if !removed {
		return n, false
	}
	n.children[s] = next
	if next == nil {
		// Collapse the node if every stripe is now empty.
		for _, c := range n.children {
			if c != nil {
				return n, true
			}
		}
		t.nodes--
		return nil, true
	}
	return n, true
}

// RangeQuery visits every indexed point within radius of q under the given
// metric. The radius must not exceed the ε the tree was built for: the
// stripe grid only guarantees that closer points sit in adjacent stripes.
// A pivot-keyed tree answers only under metrics its keys bound.
func (t *Tree) RangeQuery(q []float64, metric vec.Metric, radius float64, counters *stats.Counters, visit func(i int)) {
	if len(q) != t.ds.Dims() {
		panic(fmt.Sprintf("core: query of dimension %d against %d-dim tree", len(q), t.ds.Dims()))
	}
	if !(radius > 0) || radius > t.eps {
		panic(fmt.Sprintf("core: query radius %g outside (0, %g]; the stripe grid is built for ε=%g", radius, t.eps, t.eps))
	}
	t.serves(metric)
	if t.root == nil {
		return
	}
	th := vec.Threshold(metric, radius)
	f := t.ds.FlatView()
	// qk is the query in key space. A key of q that a match needs is at
	// most maxKey+radius, inside what the slack covers; beyond that the
	// window is empty whatever q's own rounding.
	qk := q
	if t.piv != nil {
		qk = make([]float64, t.piv.k)
		t.piv.row(qk, q)
	}
	keys, win := t.keyTable(), radius+t.slack()
	ks, stride := keys.Data[t.sweepKey:], keys.Stride
	emit := func(yi int32) { visit(int(yi)) }
	var visits, comps int64
	var rec func(n *node, depth int)
	rec = func(n *node, depth int) {
		visits++
		if n.leaf() {
			v := qk[t.sweepKey]
			// The leaf is sweep-sorted: only the window [v−r, v+r] can hit.
			lo := sort.Search(len(n.pts), func(k int) bool {
				return ks[int(n.pts[k])*stride] >= v-win
			})
			hi := lo
			for hi < len(n.pts) && ks[int(n.pts[hi])*stride] <= v+win {
				hi++
			}
			c, _ := vec.ProbeQueryFlat(metric, q, f, n.pts[lo:hi], th, emit)
			comps += c
			return
		}
		dim := t.order[depth]
		s := t.stripeOf(qk[dim], dim)
		for _, cs := range [3]int{s - 1, s, s + 1} {
			if cs < 0 || cs >= len(n.children) || n.children[cs] == nil {
				continue
			}
			rec(n.children[cs], depth+1)
		}
	}
	rec(t.root, 0)
	if counters != nil {
		counters.AddNodeVisits(visits)
		counters.AddDistComps(comps)
		counters.AddCandidates(comps)
	}
}
