package core

import (
	"fmt"
	"math"
	"math/rand"

	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

// The tree never needs a coordinate, only a key: stripes of width ε and ε
// sweep windows are exact for any per-point key with
// |key(a) − key(b)| ≤ dist(a, b), because a pair within ε then sits in the
// same or adjacent stripes of every level and inside every window. A raw
// coordinate is such a key for L1, L2 and L∞; so is the distance to a fixed
// pivot, for any metric, by the triangle inequality — and it sees all d
// dimensions where a coordinate sees one. This file holds the second kind:
// pivot selection, the key table, the build-time choice between the two,
// and the rounding slack computed keys need.

const (
	// maxPivots caps the key table's width (and so the tree's depth).
	maxPivots = 16
	// keySample is how many points the one-shot build looks at to pick
	// pivots; keyPairSample how many of those it pairs up to choose between
	// the two key kinds (8 128 pairs resolve a factor of two with room to
	// spare, at a quarter of what all 32 640 would add to every build).
	keySample     = 256
	keyPairSample = 128
	// keySampleSeed fixes the sample, so a dataset always gets the same
	// pivots, the same tree and the same counters.
	keySampleSeed = 0x6b657973
)

// keyMode is the build's key choice; the zero value lets the data decide.
// It is reachable only from this package's tests, through Config.keys.
type keyMode uint8

const (
	keysAuto keyMode = iota
	keysRaw
	keysPivot
)

// pivotSet is what trees over pivot keys share: the pivots, the metric
// their distances were computed under, and the rounding slack. The two
// trees of a two-set join hold one pivotSet by pointer, which is how
// sameFrame knows their key spaces agree.
type pivotSet struct {
	metric vec.Metric
	dims   int
	k      int
	pts    []float64 // k × dims, copied out of the data
	// maxKey is the largest key computed so far and slack the widening it
	// implies; Insert raises both when a point lands farther out.
	maxKey, slack float64
}

// keySlack bounds how far the computed difference of two pivot keys can
// exceed the true distance of a pair the kernel accepts. A key is a
// distance accumulated over dims terms, so it carries a relative error of
// at most (dims+2)·2⁻⁵³; the kernel's own sum carries as much against ε.
// For a pair within ε both keys are at most maxKey+ε, which puts the total
// under 4·(dims+2)·2⁻⁵³·max(maxKey, ε). The factor 8 leaves the same again
// for the window and stripe arithmetic done on the keys afterwards.
func keySlack(dims int, maxKey, eps float64) float64 {
	return 8 * float64(dims+2) * 0x1p-53 * math.Max(maxKey, eps)
}

// metricRank orders the metrics by pointwise size: L∞ ≤ L2 ≤ L1.
var metricRank = [...]int{vec.Linf: 0, vec.L2: 1, vec.L1: 2}

// bounds reports whether keys computed under metric k are 1-Lipschitz for
// joins under metric q, i.e. dist_k ≤ dist_q everywhere.
func bounds(k, q vec.Metric) bool { return metricRank[k] <= metricRank[q] }

// row writes p's keys — its distance to each pivot — into dst and returns
// the largest.
func (ps *pivotSet) row(dst, p []float64) float64 {
	var max float64
	for k := 0; k < ps.k; k++ {
		v := vec.Dist(ps.metric, p, ps.pts[k*ps.dims:(k+1)*ps.dims])
		dst[k] = v
		if v > max {
			max = v
		}
	}
	return max
}

// table computes the n × k key table of ds and widens the set's slack to
// cover it. A nil result means some key is not finite (coordinates near
// the float64 range overflow a distance) and the set cannot be used.
func (ps *pivotSet) table(ds *dataset.Dataset, eps float64) []float64 {
	n := ds.Len()
	keys := make([]float64, n*ps.k)
	for i := 0; i < n; i++ {
		if m := ps.row(keys[i*ps.k:(i+1)*ps.k], ds.Point(i)); m > ps.maxKey {
			ps.maxKey = m
		}
	}
	if math.IsInf(ps.maxKey, 0) || math.IsNaN(ps.maxKey) {
		return nil
	}
	ps.slack = keySlack(ps.dims, ps.maxKey, eps)
	return keys
}

// choosePivots decides the key kind of a one-shot build over the union of
// sets (one for a self-join, two for a two-set join): it returns the
// pivots to key on, or nil for raw coordinates.
//
// Pivots come from a farthest-first traversal of a fixed-seed sample —
// each new pivot is the sample point farthest from all earlier ones — which
// stops at maxPivots or once every sample point is within 2ε of a pivot
// (further pivots would split no cluster a stripe can resolve). The choice
// compares what each key kind would filter: the number of sample pairs
// whose stripes are the same or adjacent on every one of the first D keys,
// D = ⌈log₂(n/leaf)⌉ being the depth a tree of this size reaches — the
// pairs such a tree would still hand to its leaves. Pivot keys cost a table
// of n·k distances, so they are taken only when they at least halve that
// number.
//
// leaf and rawOrder are the leaf capacity and the split order a raw-keyed
// tree over the same data would use.
func choosePivots(sets []*dataset.Dataset, eps float64, leaf int, rawOrder []int, mode keyMode, metric vec.Metric) *pivotSet {
	n := 0
	for _, ds := range sets {
		n += ds.Len()
	}
	depth := 0
	for m := leaf; m < n; m *= 2 {
		depth++
	}
	if mode == keysRaw || n == 0 || (mode == keysAuto && depth == 0) {
		return nil
	}
	sample := samplePoints(sets, n)

	// Farthest-first traversal. skeys[k] is the sample's key column for
	// pivot k; near[i] the distance from sample[i] to its closest pivot.
	dims := sets[0].Dims()
	ps := &pivotSet{metric: metric, dims: dims}
	skeys := make([][]float64, 0, maxPivots)
	near := make([]float64, len(sample))
	for i := range near {
		near[i] = math.Inf(1)
	}
	next := farthest(distsTo(metric, sample, sample[0]))
	for {
		col := distsTo(metric, sample, sample[next])
		ps.pts = append(ps.pts, sample[next]...)
		skeys = append(skeys, col)
		for i, v := range col {
			if v < near[i] {
				near[i] = v
			}
		}
		next = farthest(near)
		reach := near[next]
		if len(skeys) == maxPivots || !(reach > 0) || (mode == keysAuto && reach <= 2*eps) {
			break
		}
	}
	ps.k = len(skeys)
	if mode == keysPivot {
		return ps
	}
	if ps.k < 2 {
		return nil
	}

	// Surviving-pair count of each key kind over the pairs of a prefix of
	// the sample (itself a uniform sample when the points were drawn, in
	// random order; the first points of a dataset too small to sample).
	m := min(len(sample), keyPairSample)
	col := make([]float64, m)
	rawRows := newStripeRows(m, min(depth, dims))
	for l, d := range rawOrder[:rawRows.keys] {
		for i, p := range sample[:m] {
			col[i] = p[d]
		}
		rawRows.set(l, col, eps)
	}
	pivRows := newStripeRows(m, min(depth, ps.k))
	for l := 0; l < pivRows.keys; l++ {
		pivRows.set(l, skeys[l][:m], eps)
	}
	rawPairs, pivPairs := rawRows.adjacentPairs(), pivRows.adjacentPairs()
	if 2*pivPairs > rawPairs {
		return nil
	}
	return ps
}

// samplePoints returns keySample points drawn (with replacement, in random
// order, from a fixed seed) from the n points of sets, or all of them when
// there are no more than that. The points alias the datasets.
func samplePoints(sets []*dataset.Dataset, n int) [][]float64 {
	at := func(i int) []float64 {
		for _, ds := range sets {
			if i < ds.Len() {
				return ds.Point(i)
			}
			i -= ds.Len()
		}
		panic("core: sample index past the last set")
	}
	sample := make([][]float64, 0, keySample)
	if n <= keySample {
		for i := 0; i < n; i++ {
			sample = append(sample, at(i))
		}
		return sample
	}
	rng := rand.New(rand.NewSource(keySampleSeed))
	for len(sample) < keySample {
		sample = append(sample, at(rng.Intn(n)))
	}
	return sample
}

// stripeRows holds, for m sample points, the stripe each falls in on each
// of the first few keys of one key kind, a row per point.
type stripeRows struct {
	keys int
	idx  []int32 // m × keys
}

func newStripeRows(m, keys int) stripeRows {
	return stripeRows{keys: keys, idx: make([]int32, m*keys)}
}

// set fills key column l from the points' values of that key: stripes of
// width eps counted from the smallest value.
func (r stripeRows) set(l int, vs []float64, eps float64) {
	lo := vs[0]
	for _, v := range vs {
		lo = math.Min(lo, v)
	}
	for i, v := range vs {
		r.idx[i*r.keys+l] = int32((v - lo) / eps)
	}
}

// adjacentPairs counts the pairs of points whose stripes are the same or
// adjacent on every key: the pairs a tree striped on those keys would still
// hand to its leaves.
func (r stripeRows) adjacentPairs() int {
	pairs := 0
	for i := 0; i+r.keys <= len(r.idx); i += r.keys {
		a := r.idx[i : i+r.keys]
	next:
		for j := i + r.keys; j+r.keys <= len(r.idx); j += r.keys {
			for l, s := range r.idx[j : j+r.keys] {
				if d := a[l] - s; d > 1 || d < -1 {
					continue next
				}
			}
			pairs++
		}
	}
	return pairs
}

// distsTo returns the distance from every point to p.
func distsTo(m vec.Metric, pts [][]float64, p []float64) []float64 {
	out := make([]float64, len(pts))
	for i, q := range pts {
		out[i] = vec.Dist(m, q, p)
	}
	return out
}

// farthest returns the index of the largest value (the first on ties, and
// past any NaN, so the traversal is deterministic).
func farthest(vs []float64) int {
	best := 0
	for i, v := range vs {
		if v > vs[best] {
			best = i
		}
	}
	return best
}

// keyBox returns the joint bounding box of n × k key tables.
func keyBox(k int, tables ...[]float64) vec.Box {
	box := vec.NewEmptyBox(k)
	for _, keys := range tables {
		for i := 0; i+k <= len(keys); i += k {
			box.Extend(keys[i : i+k])
		}
	}
	return box
}

// Keys names the tree's key kind as reports print it: "raw" for the
// dataset's own coordinates, "pivot/<k>" for distances to k pivots.
func (t *Tree) Keys() string { return t.piv.name() }

func (ps *pivotSet) name() string {
	if ps == nil {
		return "raw"
	}
	return fmt.Sprintf("pivot/%d", ps.k)
}
