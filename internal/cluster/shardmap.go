// Package cluster turns a fleet of simjoind workers into one sharded
// similarity-join service. A Coordinator partitions each uploaded dataset
// across the workers with deterministic slab routing plus ε-boundary
// replication, sends self-joins to every shard and each range or KNN
// query to the fewest shards that hold all its possible matches, and
// merges the per-shard answers back into exactly the result a single node
// would have produced — degrading to partial, error-tagged results when
// workers are down.
//
// Sharding scheme. Points are sliced into K contiguous slabs along one
// routing dimension (the widest one), with cut values chosen at
// quantiles of the upload so shards balance. Every point whose
// coordinate lies within Margin above a shard's upper cut is *also*
// stored on that shard ("boundary replication"). For any pair within
// eps ≤ Margin that spans slabs, the lower point's shard therefore holds
// both endpoints: if a sits in slab i (so a[dim] < cut_i) and
// |dist(a,b)| ≤ eps, then b[dim] < cut_i + Margin, which is exactly the
// replica strip of shard i. A per-shard self-join thus sees every
// qualifying pair at least once; the merge step maps worker-local
// indexes back to upload order and dedupes pairs found by more than one
// shard, so the distributed pair set equals the single-node pair set.
//
// Point-query routing. Replication also means shard s stores every point
// with routing coordinate in [cut_{s−1}, cut_s + Margin) (see covers).
// Under L1, L2 and L∞ a match within r of a query at coordinate x lies in
// [x−r, x+r], so when one shard's interval covers that, the shard answers
// alone (see route). A range query knows r up front; a KNN learns it from
// its home shard's k-th neighbour and asks further shards only when that
// ball leaves the home shard's interval.
package cluster

import (
	"math"
	"sort"
)

// ShardMap records how one dataset was partitioned across the workers.
// A built map is immutable; appends extend a dataset by building a
// successor map copy-on-write (see extend) and swapping it in, so
// readers holding the old map keep a consistent snapshot.
type ShardMap struct {
	// Dims is the dataset dimensionality.
	Dims int
	// Dim is the routing dimension (the widest at upload time).
	Dim int
	// Cuts are the K-1 ascending slab boundaries; Cuts[i] separates
	// shard i from shard i+1. A point with coordinate x routes to the
	// shard numbered by how many cuts are ≤ x.
	Cuts []float64
	// Margin is the boundary-replication width: self-joins with
	// eps ≤ Margin are exact.
	Margin float64
	// Total is the number of points in the original upload.
	Total int
	// Shards holds one entry per worker, in worker order.
	Shards []Shard
}

// Shard is one worker's slice of a dataset.
type Shard struct {
	// URL is the worker's base URL.
	URL string
	// Global maps the worker's local point index to the index in the
	// original upload (core points and replicas alike).
	Global []int
}

// Partition splits pts across len(urls) shards and returns the map plus
// the per-shard point slices to upload (core slab plus the replica strip
// within margin above the shard's upper cut). pts must be non-empty and
// rectangular; margin must be positive.
func Partition(pts [][]float64, urls []string, margin float64) (*ShardMap, [][][]float64) {
	n, k := len(pts), len(urls)
	sm := &ShardMap{Dims: len(pts[0]), Dim: widestDim(pts), Margin: margin, Total: n}
	if k > 1 {
		vals := make([]float64, n)
		for i, p := range pts {
			vals[i] = p[sm.Dim]
		}
		sort.Float64s(vals)
		sm.Cuts = make([]float64, 0, k-1)
		for i := 1; i < k; i++ {
			sm.Cuts = append(sm.Cuts, vals[i*n/k])
		}
	}
	sm.Shards = make([]Shard, k)
	for i := range sm.Shards {
		sm.Shards[i].URL = urls[i]
	}
	return sm, sm.place(pts, 0)
}

// widestDim returns the dimension with the largest spread (ties go to
// the lowest index), so slab routing splits where the data actually
// extends.
func widestDim(pts [][]float64) int {
	dims := len(pts[0])
	best, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		lo, hi := pts[0][d], pts[0][d]
		for _, p := range pts {
			if p[d] < lo {
				lo = p[d]
			}
			if p[d] > hi {
				hi = p[d]
			}
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}

// extend returns a successor map that also routes pts — numbered
// m.Total onward — to their shards with the same cut/replication rules
// Partition used, plus the per-shard point batches to send. The
// receiver is not modified: Cuts stay shared (they never change after
// upload), Global tables are copied before growing. Appended points
// always route through the original cuts, so slabs can grow imbalanced
// over time; rebalancing means re-uploading.
func (m *ShardMap) extend(pts [][]float64) (*ShardMap, [][][]float64) {
	n := &ShardMap{
		Dims:   m.Dims,
		Dim:    m.Dim,
		Cuts:   m.Cuts,
		Margin: m.Margin,
		Total:  m.Total + len(pts),
		Shards: make([]Shard, len(m.Shards)),
	}
	for s, sh := range m.Shards {
		g := make([]int, len(sh.Global), len(sh.Global)+len(pts))
		copy(g, sh.Global)
		n.Shards[s] = Shard{URL: sh.URL, Global: g}
	}
	return n, n.place(pts, m.Total)
}

// place stores pts, numbered first onward, on every shard whose interval
// holds their routing coordinate — the owning slab and each shard whose
// replica strip reaches them — growing the Global tables, and returns the
// per-shard point batches.
func (m *ShardMap) place(pts [][]float64, first int) [][][]float64 {
	shardPts := make([][][]float64, len(m.Shards))
	for k, p := range pts {
		x := p[m.Dim]
		// The strips' tops ascend with the shard, so the first shard
		// below the owner that misses x ends the walk.
		for s := m.ShardOf(x); s >= 0 && m.covers(s, x, x); s-- {
			m.Shards[s].Global = append(m.Shards[s].Global, first+k)
			shardPts[s] = append(shardPts[s], p)
		}
	}
	return shardPts
}

// ShardOf returns the shard owning a point with routing coordinate x.
func (m *ShardMap) ShardOf(x float64) int {
	return sort.Search(len(m.Cuts), func(i int) bool { return m.Cuts[i] > x })
}

// RouteInterval returns the shards whose slabs intersect [lo, hi]: their
// cores alone hold every point with routing coordinate in the interval.
func (m *ShardMap) RouteInterval(lo, hi float64) []int {
	a, b := m.ShardOf(lo), m.ShardOf(hi)
	out := make([]int, 0, b-a+1)
	for s := a; s <= b; s++ {
		out = append(out, s)
	}
	return out
}

// covers reports whether shard s stores every point whose routing
// coordinate lies in [lo, hi]: its stored interval is [Cuts[s−1],
// Cuts[s]+Margin), open below on the first shard and above on the last.
// The upper bound is the expression Partition and extend replicate with,
// so covers(s, x, x) holds exactly when a point at x is stored on s.
func (m *ShardMap) covers(s int, lo, hi float64) bool {
	return (s == 0 || lo >= m.Cuts[s-1]) && (s == len(m.Cuts) || hi < m.Cuts[s]+m.Margin)
}

// route returns the shards a point query must ask when every possible
// match has its routing coordinate in [lo, hi]: the one shard that covers
// the interval when there is one, else every slab the interval
// intersects. Only the first of those slabs can cover: a shard covering
// lo starts at or below it, and of those the first slab reaches highest.
func (m *ShardMap) route(lo, hi float64) []int {
	slabs := m.RouteInterval(lo, hi)
	if m.covers(slabs[0], lo, hi) {
		return slabs[:1]
	}
	return slabs
}

// home returns the shard a KNN around routing coordinate x asks first:
// of the non-empty shards storing x, the one with the most room on both
// sides of it, so the most likely to cover the k-th neighbour's ball.
// It returns −1 when no non-empty shard stores x.
func (m *ShardMap) home(x float64) int {
	best, room := -1, math.Inf(-1)
	// Shard ShardOf(x) stores x; below it, a shard stores x while x is in
	// its replica strip, and the strips' tops descend with the shard.
	for s := m.ShardOf(x); s >= 0 && m.covers(s, x, x); s-- {
		if len(m.Shards[s].Global) == 0 {
			continue
		}
		below, above := math.Inf(1), math.Inf(1)
		if s > 0 {
			below = x - m.Cuts[s-1]
		}
		if s < len(m.Cuts) {
			above = m.Cuts[s] + m.Margin - x
		}
		if r := min(below, above); r > room {
			best, room = s, r
		}
	}
	return best
}

// nonEmpty lists the shards that actually hold points.
func (m *ShardMap) nonEmpty() []int {
	out := make([]int, 0, len(m.Shards))
	for s, sh := range m.Shards {
		if len(sh.Global) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// holding returns the shards of list that hold points, other than skip
// (−1 skips none). A shard without points has no dataset on its worker.
func (m *ShardMap) holding(list []int, skip int) []int {
	out := make([]int, 0, len(list))
	for _, s := range list {
		if s != skip && len(m.Shards[s].Global) > 0 {
			out = append(out, s)
		}
	}
	return out
}
