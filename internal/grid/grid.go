// Package grid implements the ε-cell hash-grid similarity join: space is
// cut into cells of width ε, points are hashed to their cell, and only
// points in the same or adjacent cells are tested. It is the natural
// competitor to the ε-kdB tree — and its weakness is the point of the
// comparison: the number of adjacent cells grows as 3^g in the number g of
// gridded dimensions, so the grid can only afford to use a few dimensions
// (the widest ones), leaving the remaining dimensions unfiltered. The ε-kdB
// tree escapes this by nesting stripes one dimension at a time, visiting
// only the non-empty parts of the neighborhood.
package grid

import (
	"sort"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// maxGridDims bounds how many dimensions are gridded (the widest ones).
// Each gridded dimension triples the neighborhood, so 6 (≤ 729 neighbor
// cells) is about as far as the method can be pushed.
const maxGridDims = 6

// index is the cell-hash structure built over one dataset.
type index struct {
	ds      *dataset.Dataset
	eps     float64
	gridded []int     // which dimensions are gridded, in order
	origin  []float64 // grid origin per gridded dimension
	cells   map[string][]int32
}

// build hashes every point of ds into cells of width eps over the gridded
// dimensions. The origin comes from box (so two sets can share one grid).
func build(ds *dataset.Dataset, eps float64, box vec.Box) *index {
	g := min(maxGridDims, ds.Dims())
	// Grid the g widest dimensions: widest first prunes most.
	dims := make([]int, ds.Dims())
	for i := range dims {
		dims[i] = i
	}
	sort.Slice(dims, func(a, b int) bool {
		return box.Hi[dims[a]]-box.Lo[dims[a]] > box.Hi[dims[b]]-box.Lo[dims[b]]
	})
	idx := &index{
		ds:      ds,
		eps:     eps,
		gridded: dims[:g],
		origin:  make([]float64, g),
		cells:   make(map[string][]int32, ds.Len()/2+1),
	}
	for k, dim := range idx.gridded {
		idx.origin[k] = box.Lo[dim]
	}
	coords := make([]int32, g)
	for i := 0; i < ds.Len(); i++ {
		idx.cellOf(ds.Point(i), coords)
		k := string(encode(nil, coords))
		idx.cells[k] = append(idx.cells[k], int32(i))
	}
	return idx
}

// cellOf writes the cell coordinates of point p into dst. Coordinates are
// clamped to int32 range so a pathologically small ε degrades to a coarse
// (still correct, just unselective) final cell rather than overflowing.
func (ix *index) cellOf(p []float64, dst []int32) {
	const maxCell = 1 << 30
	for k, dim := range ix.gridded {
		v := (p[dim] - ix.origin[k]) / ix.eps
		if v > maxCell {
			v = maxCell
		}
		if v < -maxCell {
			v = -maxCell
		}
		dst[k] = int32(v)
	}
}

// encode appends the byte encoding of cell coordinates to dst.
func encode(dst []byte, coords []int32) []byte {
	for _, c := range coords {
		u := uint32(c)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return dst
}

// SelfJoin reports every unordered pair within ε once. The occupied cells
// are spread over opt.WorkerCount() workers, each taking its private sink
// from newSink (pairs.Sharded handles, or a shared pairs.Counter). The
// decomposition cannot duplicate: each cell owns its within-cell pairs and
// its pairs with its lexicographically-positive neighbors, so no pair is
// claimed by two cells.
func SelfJoin(ds *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	if ds.Len() < 2 {
		return
	}
	c := opt.Stats()
	t := opt.Threshold()
	start := time.Now()
	ix := build(ds, opt.Eps, ds.Bounds())
	g := len(ix.gridded)
	offsets := positiveOffsets(g)
	opt.Timing().AddBuild(time.Since(start))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()

	f := ds.FlatView()
	work := make(chan string, len(ix.cells))
	for key := range ix.cells {
		work <- key
	}
	close(work)
	join.Spread(min(opt.WorkerCount(), len(ix.cells)), func(int) {
		sink := newSink()
		nb := make([]int32, g)
		keyBuf := make([]byte, 0, 4*g)
		var cand, res int64
		var cur int32
		emit := func(yi int32) { sink.Emit(int(cur), int(yi)) }
		for key := range work {
			members := ix.cells[key]
			for a := 0; a < len(members); a++ {
				cur = members[a]
				pc, pr := vec.ProbeListFlat(opt.Metric, f, cur, f, members[a+1:], t, emit)
				cand += pc
				res += pr
			}
			coords := decode(key, g)
			for _, off := range offsets {
				for k := range nb {
					nb[k] = coords[k] + int32(off[k])
				}
				other, ok := ix.cells[string(encode(keyBuf[:0], nb))]
				if !ok {
					continue
				}
				for _, ia := range members {
					cur = ia
					pc, pr := vec.ProbeListFlat(opt.Metric, f, ia, f, other, t, emit)
					cand += pc
					res += pr
				}
			}
		}
		c.AddCandidates(cand)
		c.AddDistComps(cand)
		c.AddResults(res)
	})
}

// Join reports every (a-index, b-index) pair within ε. The grid is built
// once over b, on the joint bounding box; opt.WorkerCount() workers then
// stride over a's points, each probing its 3^g neighborhood into a private
// sink from newSink. Every (a, b) pair is owned by its a-point, so none is
// reported twice.
func Join(a, b *dataset.Dataset, opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	if a.Len() == 0 || b.Len() == 0 {
		return
	}
	c := opt.Stats()
	t := opt.Threshold()
	start := time.Now()
	box := a.Bounds()
	box.ExtendBox(b.Bounds())
	ix := build(b, opt.Eps, box)
	g := len(ix.gridded)
	offsets := allOffsets(g)
	opt.Timing().AddBuild(time.Since(start))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	fa := a.FlatView()
	fb := b.FlatView()
	workers := min(opt.WorkerCount(), a.Len())
	join.Spread(workers, func(w int) {
		sink := newSink()
		coords := make([]int32, g)
		nb := make([]int32, g)
		keyBuf := make([]byte, 0, 4*g)
		var cand, res int64
		var cur int32
		emit := func(yi int32) { sink.Emit(int(cur), int(yi)) }
		for i := w; i < a.Len(); i += workers {
			ix.cellOf(a.Point(i), coords)
			cur = int32(i)
			for _, off := range offsets {
				for k := range nb {
					nb[k] = coords[k] + int32(off[k])
				}
				members, ok := ix.cells[string(encode(keyBuf[:0], nb))]
				if !ok {
					continue
				}
				pc, pr := vec.ProbeListFlat(opt.Metric, fa, cur, fb, members, t, emit)
				cand += pc
				res += pr
			}
		}
		c.AddCandidates(cand)
		c.AddDistComps(cand)
		c.AddResults(res)
	})
}

// decode parses a cell key back into coordinates.
func decode(key string, g int) []int32 {
	out := make([]int32, g)
	for k := 0; k < g; k++ {
		b := key[4*k:]
		out[k] = int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	}
	return out
}

// allOffsets enumerates {-1,0,1}^g.
func allOffsets(g int) [][]int8 {
	total := 1
	for i := 0; i < g; i++ {
		total *= 3
	}
	out := make([][]int8, 0, total)
	cur := make([]int8, g)
	for i := range cur {
		cur[i] = -1
	}
	for {
		off := make([]int8, g)
		copy(off, cur)
		out = append(out, off)
		k := g - 1
		for ; k >= 0; k-- {
			if cur[k] < 1 {
				cur[k]++
				break
			}
			cur[k] = -1
		}
		if k < 0 {
			return out
		}
	}
}

// positiveOffsets enumerates the offsets in {-1,0,1}^g whose first nonzero
// component is +1, i.e. exactly one of {δ, −δ} for each δ ≠ 0. Visiting
// only these from every cell touches each unordered pair of adjacent cells
// exactly once.
func positiveOffsets(g int) [][]int8 {
	var out [][]int8
	for _, off := range allOffsets(g) {
		for _, v := range off {
			if v > 0 {
				out = append(out, off)
				break
			}
			if v < 0 {
				break
			}
		}
	}
	return out
}
