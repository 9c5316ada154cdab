package jointest

import (
	"math/rand"
	"sort"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// The served oracle: brute-force answers over the points a served test
// uploaded, under L2, the metric those tests query. Every answer uses the
// kernels' own predicate (vec.Within against vec.Threshold; the pair sets
// run through internal/brute), so a served answer and its oracle cannot
// disagree on a point at exactly ε.

// SelfPairs is the self-join of pts: every (i, j), i < j, with pts[i]
// within eps of pts[j], sorted.
func SelfPairs(pts [][]float64, eps float64) [][2]int {
	c := &pairs.Collector{Canonical: true}
	if len(pts) > 0 {
		brute.SelfJoin(dataset.FromPoints(pts), join.Options{Metric: vec.L2, Eps: eps}, c)
	}
	return sorted(c)
}

// CrossPairs is the two-set join of a and b: every (i, j) with a[i]
// within eps of b[j], sorted.
func CrossPairs(a, b [][]float64, eps float64) [][2]int {
	c := &pairs.Collector{}
	if len(a) > 0 && len(b) > 0 {
		brute.Join(dataset.FromPoints(a), dataset.FromPoints(b), join.Options{Metric: vec.L2, Eps: eps}, c)
	}
	return sorted(c)
}

func sorted(c *pairs.Collector) [][2]int {
	out := [][2]int{}
	for _, p := range c.Sorted() {
		out = append(out, [2]int{int(p.I), int(p.J)})
	}
	return out
}

// Range is the indexes of the points of pts within radius of q,
// ascending. It tests each point with vec.Within against vec.Threshold,
// the predicate brute's kernels run (TestWithinBoundaryExact holds the
// two together), and allocates nothing per point: tests call it in their
// reader loops.
func Range(pts [][]float64, q []float64, radius float64) []int {
	out := []int{}
	t := vec.Threshold(vec.L2, radius)
	for i, p := range pts {
		if vec.Within(vec.L2, q, p, t) {
			out = append(out, i)
		}
	}
	return out
}

// neighbor is one KNN answer entry on the wire: the underlying type of
// api.Neighbor, which this package cannot import (api depends on the
// engines whose tests import this package).
type neighbor = struct {
	Index int     `json:"index"`
	Dist  float64 `json:"dist"`
}

// KNN is the min(k, len(pts)) points of pts nearest q, nearest first,
// ties broken by the lower index, as N, the caller's neighbor type.
func KNN[N ~neighbor](pts [][]float64, q []float64, k int) []N {
	all := make([]neighbor, len(pts))
	for i, p := range pts {
		all[i] = neighbor{Index: i, Dist: vec.Dist(vec.L2, q, p)}
	}
	sort.Slice(all, func(a, b int) bool {
		return all[a].Dist < all[b].Dist || (all[a].Dist == all[b].Dist && all[a].Index < all[b].Index)
	})
	out := make([]N, min(k, len(all)))
	for i := range out {
		out[i] = N(all[i])
	}
	return out
}

// UniformPoints draws n points of the unit cube in dims dimensions, one
// coordinate after another from one seeded source.
func UniformPoints(n, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// Delta is the pairs of all that before does not hold, in all's order:
// what a standing query registered when the answer was before delivers
// once the data has grown to answer all.
func Delta(all, before [][2]int) [][2]int {
	old := make(map[[2]int]bool, len(before))
	for _, p := range before {
		old[p] = true
	}
	out := [][2]int{}
	for _, p := range all {
		if !old[p] {
			out = append(out, p)
		}
	}
	return out
}
