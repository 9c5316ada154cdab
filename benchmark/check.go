package main

import (
	"fmt"
	"math/rand"
	"sort"

	"simjoin"
)

// pairSum identifies a pair set whatever order it arrives in: the pair
// count and the XOR of a 64-bit hash of every pair.
type pairSum struct {
	N   int64
	Xor uint64
}

func (s *pairSum) add(i, j int) {
	s.N++
	s.Xor ^= mix64(uint64(uint32(i))<<32 | uint64(uint32(j)))
}

// addSelf adds a self-join pair in canonical (low, high) order.
func (s *pairSum) addSelf(i, j int) {
	if j < i {
		i, j = j, i
	}
	s.add(i, j)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// oracleRows is how many seeded rows the brute scan re-derives to check
// the reference engine itself.
const oracleRows = 200

// joinReference fixes the expected answer of a join at eps — the
// self-join of a when b is nil, else the two-set join with pairs (index in
// a, index in b): the pair set of an engine that shares no code with the
// default ε-kdB path (the sort-sweep), itself checked against a harness
// brute scan of oracleRows seeded rows of a.
func joinReference(r *rand.Rand, a, b [][]float64, eps float64) (pairSum, error) {
	self := b == nil
	add := (*pairSum).add
	if self {
		b, add = a, (*pairSum).addSelf
	}
	rows := make(map[int]*pairSum)
	for len(rows) < min(oracleRows, len(a)) {
		rows[r.Intn(len(a))] = &pairSum{}
	}
	var ref pairSum
	emit := func(i, j int) {
		add(&ref, i, j)
		if s := rows[i]; s != nil {
			add(s, i, j)
		}
		if s := rows[j]; s != nil && self {
			add(s, i, j)
		}
	}
	opt := simjoin.Options{Eps: eps, Algorithm: simjoin.AlgorithmSweep, Workers: 1}
	var err error
	if self {
		_, err = simjoin.SelfJoinEach(simjoin.FromPoints(a), opt, emit)
	} else {
		_, err = simjoin.JoinEach(simjoin.FromPoints(a), simjoin.FromPoints(b), opt, emit)
	}
	if err != nil {
		return ref, err
	}
	for row, got := range rows {
		var want pairSum
		for _, j := range bruteRange(b, a[row], eps) {
			if !self || j != row {
				add(&want, row, j)
			}
		}
		if want != *got {
			return ref, fmt.Errorf("reference engine disagrees with brute scan at row %d: %+v, brute %+v", row, *got, want)
		}
	}
	return ref, nil
}

// bruteRange lists, in rising order, the points of pts within L2 radius
// of q.
func bruteRange(pts [][]float64, q []float64, radius float64) []int {
	var out []int
	for i, p := range pts {
		if sqDist(p, q) <= radius*radius {
			out = append(out, i)
		}
	}
	return out
}

// bruteKNN lists the k points of pts nearest q, nearest first (ties by
// index). It keeps the best k so far in order; almost every point fails
// the first comparison, so a scan costs one distance per point.
func bruteKNN(pts [][]float64, q []float64, k int) []int {
	type cand struct {
		i int
		d float64
	}
	best := make([]cand, 0, k+1)
	for i, p := range pts {
		d := sqDist(p, q)
		if len(best) == k && d >= best[k-1].d {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return best[j].d > d })
		best = append(best, cand{})
		copy(best[at+1:], best[at:])
		best[at] = cand{i, d}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.i
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
