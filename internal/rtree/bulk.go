package rtree

import (
	"simjoin/internal/dataset"
	"simjoin/internal/vec"
	"simjoin/internal/zorder"
)

// BulkLoad builds a packed R-tree over all points of ds: points are sorted
// along the Z-order curve and packed into leaves, then each level is packed
// the same way until one root remains. Chunks are sized evenly, which both
// maximizes fill and guarantees the minimum-fill invariant (an even split
// of more than maxEntries items never leaves a chunk below maxEntries/2).
// Packing gives near-minimal overlap — the closest faithful stand-in for
// the original evaluation's overlap-free R+ tree.
//
// maxEntries ≤ 0 selects DefaultMaxEntries; a capacity below 4 is raised
// to 4 (at 1, packing would never shrink a level toward one root).
func BulkLoad(ds *dataset.Dataset, maxEntries int) *Tree {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	maxEntries = max(maxEntries, 4)
	t := &Tree{ds: ds, maxEntries: maxEntries, minEntries: maxEntries / 2, root: &node{leaf: true}, height: 1}
	if ds.Len() == 0 {
		t.nodes = 1
		return t
	}
	order := zorder.SortedIndexes(ds)

	// Pack leaves.
	level := make([]entry, 0, len(order)/t.maxEntries+1)
	for _, chunk := range evenChunks(len(order), t.maxEntries) {
		leaf := &node{leaf: true, entries: make([]entry, 0, chunk.end-chunk.start)}
		for _, i := range order[chunk.start:chunk.end] {
			leaf.entries = append(leaf.entries, entry{box: vec.PointBox(ds.Point(int(i))), idx: i})
		}
		t.nodes++
		level = append(level, entry{box: nodeBox(leaf), child: leaf})
	}

	// Pack internal levels until a single node remains.
	for len(level) > 1 {
		next := make([]entry, 0, len(level)/t.maxEntries+1)
		for _, chunk := range evenChunks(len(level), t.maxEntries) {
			n := &node{entries: level[chunk.start:chunk.end:chunk.end]}
			t.nodes++
			next = append(next, entry{box: nodeBox(n), child: n})
		}
		level = next
		t.height++
	}
	t.root = level[0].child
	return t
}

type chunk struct{ start, end int }

// evenChunks splits n items into ceil(n/max) consecutive chunks of
// near-equal size (differing by at most one).
func evenChunks(n, max int) []chunk {
	count := (n + max - 1) / max
	out := make([]chunk, 0, count)
	base := n / count
	extra := n % count
	start := 0
	for i := 0; i < count; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, chunk{start: start, end: start + size})
		start += size
	}
	return out
}
