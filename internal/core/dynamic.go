package core

import (
	"fmt"
	"math"
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

// RangeQuery visits every indexed point within radius of q under the given
// metric. The radius must not exceed the ε the tree was built for: the
// stripe grid only guarantees that closer points sit in adjacent stripes.
// A pivot-keyed tree answers only under metrics its keys bound.
//
// The walk is the paper's stripe walk — at every level the query's own
// stripe and its two neighbours — pruned by how far the query ball is
// from each cell: stepping into a neighbour stripe adds the query key's
// gap to that stripe's near edge, and a cell whose gaps combined exceed
// the radius holds no match (docs/ALGORITHMS.md, "Range probe").
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
	// qk is the query in key space. A key of q that a match needs is at
	// most maxKey+radius, inside what the slack covers; beyond that the
	// window is empty whatever q's own rounding.
	qk := q
	if t.piv != nil {
		qk = make([]float64, t.piv.k)
		t.piv.row(qk, q)
	}
	keys := t.keyTable()
	p := probe{
		t: t, q: q, qk: qk, metric: metric,
		th:     vec.Threshold(metric, radius),
		bound:  radius,
		round:  t.gapRounding(qk, radius) + t.slack(),
		ks:     keys.Data[t.sweepKey:],
		stride: keys.Stride,
		flat:   t.ds.FlatView(),
		emit:   func(yi int32) { visit(int(yi)) },
	}
	p.win = radius + p.round
	// Raw keys are coordinates, so their gaps combine under the query
	// metric; a pivot key bounds the distance only on its own.
	if t.piv == nil {
		switch metric {
		case vec.L2:
			p.rule, p.bound = gapSumSq, radius*radius
		case vec.L1:
			p.rule = gapSum
		}
	}
	p.walk(t.root, 0, 0)
	if counters != nil {
		counters.AddNodeVisits(p.visits)
		counters.AddDistComps(p.comps)
		counters.AddCandidates(p.comps)
	}
}

// gapRule is how a range probe combines the per-key gaps on its path into
// one lower bound on the distance to a cell.
type gapRule uint8

const (
	gapMax   gapRule = iota // L∞ over raw keys, and pivot keys under any metric
	gapSumSq                // L2 over raw keys: the bound is squared
	gapSum                  // L1 over raw keys
)

// probe is one RangeQuery's walk: the query, its keys, how gaps combine,
// and what the walk has counted.
type probe struct {
	t      *Tree
	q, qk  []float64
	metric vec.Metric
	th     float64 // the kernel threshold, vec.Threshold(metric, radius)
	rule   gapRule
	// bound is the combined gap past which a cell holds no match (the
	// radius, squared under gapSumSq); win the sweep half-window of a leaf
	// the gaps do not narrow; round what every gap is shrunk by first.
	bound, win, round float64
	ks                []float64 // the key table from the sweep key on
	stride            int
	flat              vec.Flat
	emit              func(yi int32)
	visits, comps     int64
}

// gapRounding bounds how far a gap the probe computes — a query key minus
// a stripe edge Lo + s·width, both rounded, against stripes stripeOf
// assigned by rounding (v − Lo)/width — can exceed the true distance from
// the query key to any key in the stripe, plus how far past the radius a
// point the kernel accepts can lie and the error of combining the gaps
// and narrowing the window. Each of those is at most a few (dims+2)·2⁻⁵³
// relative to the largest magnitude involved — a frame edge, a query key
// or the radius — so, as keySlack does, the factor 8 covers them all.
// Shrinking every gap by it lets rounding keep a cell but never drop one.
func (t *Tree) gapRounding(qk []float64, radius float64) float64 {
	mag := radius
	for k, lo := range t.box.Lo {
		hi := lo + float64(t.stripes[k])*t.width
		mag = max(mag, math.Abs(lo), math.Abs(hi), math.Abs(qk[k]))
	}
	return 8 * float64(max(t.ds.Dims(), len(qk))+2) * 0x1p-53 * mag
}

// walk visits n at depth, g being the combined gap from the query to the
// cell n covers.
func (p *probe) walk(n *node, depth int, g float64) {
	p.visits++
	if n.leaf() {
		p.sweep(n, depth, g)
		return
	}
	t := p.t
	dim := t.order[depth]
	v := p.qk[dim]
	s := t.stripeOf(v, dim)
	// Stripe s−1 ends and stripe s+1 starts at these edges; keys clamped
	// into stripe 0 or the last stripe lie beyond them, so farther still.
	lo := t.box.Lo[dim]
	if s > 0 && n.children[s-1] != nil {
		if cg := p.add(g, v-(lo+float64(s)*t.width)); cg <= p.bound {
			p.walk(n.children[s-1], depth+1, cg)
		}
	}
	if c := n.children[s]; c != nil {
		p.walk(c, depth+1, g)
	}
	if s+1 < len(n.children) && n.children[s+1] != nil {
		if cg := p.add(g, lo+float64(s+1)*t.width-v); cg <= p.bound {
			p.walk(n.children[s+1], depth+1, cg)
		}
	}
}

// add combines gap, shrunk by the rounding bound, into the path's gap g.
func (p *probe) add(g, gap float64) float64 {
	gap -= p.round
	if !(gap > 0) {
		return g
	}
	switch p.rule {
	case gapSumSq:
		return g + gap*gap
	case gapSum:
		return g + gap
	}
	return max(g, gap)
}

// sweep tests the leaf's points inside the sweep window around the query.
func (p *probe) sweep(n *node, depth int, g float64) {
	t := p.t
	win := p.win
	if g > 0 && depth < len(t.order) && p.rule != gapMax {
		// The sweep key was not striped on the path, so the gaps left
		// only what remains of the radius for it.
		if p.rule == gapSumSq {
			win = math.Sqrt(max(0, p.bound-g)) + p.round
		} else {
			win = p.bound - g + p.round
		}
	}
	// The leaf is sweep-sorted: only the window [v−win, v+win] can hit.
	v, pts := p.qk[t.sweepKey], n.pts
	from, to := v-win, v+win
	lo, hi := 0, len(pts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.ks[int(pts[m])*p.stride] < from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi = lo; hi < len(pts) && p.ks[int(pts[hi])*p.stride] <= to; hi++ {
	}
	c, _ := vec.ProbeQueryFlat(p.metric, p.q, p.flat, pts[lo:hi], p.th, p.emit)
	p.comps += c
}
