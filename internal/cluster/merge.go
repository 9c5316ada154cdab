package cluster

import (
	"sort"

	"simjoin/internal/api"
)

// indexSet accumulates global point indexes, deduping replicas reported
// by two shards.
type indexSet map[int]struct{}

func (is indexSet) addLocal(local []int, global []int) {
	for _, l := range local {
		// A worker can briefly hold more points than the shard map the
		// query was routed with (an append landed after the map snapshot
		// was taken); those extra points have no global identity under
		// this map, so skip them rather than fault.
		if l < 0 || l >= len(global) {
			continue
		}
		is[global[l]] = struct{}{}
	}
}

func (is indexSet) sorted() []int {
	out := make([]int, 0, len(is))
	for i := range is {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// neighborSet keeps the best distance seen per global index; replicas of
// one point may be reported by several shards.
type neighborSet map[int]float64

func (ns neighborSet) add(global int, dist float64) {
	if d, ok := ns[global]; !ok || dist < d {
		ns[global] = dist
	}
}

// farthest returns the largest accumulated distance.
func (ns neighborSet) farthest() float64 {
	far := 0.0
	for _, d := range ns {
		far = max(far, d)
	}
	return far
}

// top returns the k nearest accumulated neighbors, ordered by distance
// with index as the deterministic tie-break.
func (ns neighborSet) top(k int) []api.Neighbor {
	out := make([]api.Neighbor, 0, len(ns))
	for i, d := range ns {
		out = append(out, api.Neighbor{Index: i, Dist: d})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
