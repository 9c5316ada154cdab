package vec

import "fmt"

// Flat is a zero-copy view of a point set stored as one flat buffer of
// dims-contiguous blocks: point i occupies Data[i*Dims : (i+1)*Dims]. It is
// the layout every hot loop in the library runs over — no per-point slice
// headers, no pointer chasing, and leaf-vs-leaf sweeps walk memory in
// stride.
type Flat struct {
	Dims int
	Data []float64
}

// FlatView wraps a row-major buffer without copying. len(data) must be a
// multiple of dims.
func FlatView(dims int, data []float64) Flat {
	if dims < 1 {
		panic(fmt.Sprintf("vec: invalid dimensionality %d", dims))
	}
	if len(data)%dims != 0 {
		panic(fmt.Sprintf("vec: flat length %d not a multiple of dims %d", len(data), dims))
	}
	return Flat{Dims: dims, Data: data}
}

// Len returns the number of points in the view.
func (f Flat) Len() int { return len(f.Data) / f.Dims }

// At returns a view of point i, aliasing the underlying buffer.
func (f Flat) At(i int) []float64 {
	return f.Data[i*f.Dims : (i+1)*f.Dims : (i+1)*f.Dims]
}

// FlatFromSlices packs per-point slices into a flat buffer (the inverse of
// Flat.Slices). All points must share len(pts[0]); it panics otherwise.
func FlatFromSlices(pts [][]float64) Flat {
	if len(pts) == 0 {
		panic("vec: FlatFromSlices of empty slice (dimensionality unknown)")
	}
	dims := len(pts[0])
	data := make([]float64, 0, len(pts)*dims)
	for _, p := range pts {
		if len(p) != dims {
			panic(fmt.Sprintf("vec: packing %d-dim point into %d-dim flat view", len(p), dims))
		}
		data = append(data, p...)
	}
	return FlatView(dims, data)
}

// Slices unpacks the view into per-point slices (copies, not aliases).
func (f Flat) Slices() [][]float64 {
	out := make([][]float64, f.Len())
	for i := range out {
		out[i] = Clone(f.At(i))
	}
	return out
}

// Keys is a per-point table of sweep keys: key k of point i is
// Data[i*Stride+k]. A point set's own coordinates are one such table
// (Data = Flat.Data, Stride = Flat.Dims); so is any table of values with
// |key(a) − key(b)| ≤ dist(a, b), such as distances to fixed pivots — a
// window on it dismisses no pair the metric would accept.
type Keys struct {
	Stride int
	Data   []float64
}

// column returns the table offset so that point i's key k is at i*Stride.
func (k Keys) column(key int) []float64 { return k.Data[key:] }

// SelfSweepFlat is SelfSweepKeyed windowing on the points' own coordinate
// sweepDim.
func SelfSweepFlat(m Metric, f Flat, idx []int32, sweepDim int, eps, th float64, emit func(i, j int32)) (cand, res int64) {
	return SelfSweepKeyed(m, f, Keys{f.Dims, f.Data}, idx, sweepDim, eps, th, emit)
}

// SelfSweepKeyed enumerates the in-window pairs of one sweep-sorted index
// list over f and tests each with the metric's early-exit kernel, calling
// emit(i, j) (dataset indexes, list order) for every hit. idx must be
// sorted ascending on column key of keys; win is the window width on that
// key (ε, plus the table's rounding slack when the keys are computed) and
// th must be Threshold(m, ε). It returns the number of candidates tested
// and the number of hits — the caller charges its own counters, so the
// kernel itself stays free of shared state.
func SelfSweepKeyed(m Metric, f Flat, keys Keys, idx []int32, key int, win, th float64, emit func(i, j int32)) (cand, res int64) {
	ks := keys.column(key)
	switch m {
	case L2:
		return selfSweepL2(f.Data, f.Dims, ks, keys.Stride, idx, win, th, emit)
	case L1:
		return selfSweepL1(f.Data, f.Dims, ks, keys.Stride, idx, win, th, emit)
	default:
		return selfSweepLinf(f.Data, f.Dims, ks, keys.Stride, idx, win, th, emit)
	}
}

// CrossSweepFlat is CrossSweepKeyed windowing on the points' own
// coordinate sweepDim.
func CrossSweepFlat(m Metric, fx, fy Flat, xs, ys []int32, sweepDim int, eps, th float64, emit func(xi, yi int32)) (cand, res int64) {
	return CrossSweepKeyed(m, fx, fy, Keys{fx.Dims, fx.Data}, Keys{fy.Dims, fy.Data}, xs, ys, sweepDim, eps, th, emit)
}

// CrossSweepKeyed merges two sweep-sorted index lists, testing only pairs
// whose keys in column key differ by at most win, and calls emit(xi, yi)
// for hits. Both lists must be sorted ascending on that column of their
// table (the tables share one stride); th must be Threshold(m, ε). Views
// fx and fy may alias (self-joins of adjacent stripes) or differ (two-set
// joins).
func CrossSweepKeyed(m Metric, fx, fy Flat, kx, ky Keys, xs, ys []int32, key int, win, th float64, emit func(xi, yi int32)) (cand, res int64) {
	cx, cy := kx.column(key), ky.column(key)
	switch m {
	case L2:
		return crossSweepL2(fx.Data, fy.Data, fx.Dims, cx, cy, kx.Stride, xs, ys, win, th, emit)
	case L1:
		return crossSweepL1(fx.Data, fy.Data, fx.Dims, cx, cy, kx.Stride, xs, ys, win, th, emit)
	default:
		return crossSweepLinf(fx.Data, fy.Data, fx.Dims, cx, cy, kx.Stride, xs, ys, win, th, emit)
	}
}

// ProbeListFlat tests point xi of fx against every index in ys over fy,
// calling emit(yi) for hits. th must be Threshold(m, eps). This is the
// cell-vs-cell kernel of the grid join and the generic "one point against
// an index list" sweep.
func ProbeListFlat(m Metric, fx Flat, xi int32, fy Flat, ys []int32, th float64, emit func(yi int32)) (cand, res int64) {
	switch m {
	case L2:
		return probeListL2(fx.Data, int(xi), fy.Data, fy.Dims, ys, th, emit)
	case L1:
		return probeListL1(fx.Data, int(xi), fy.Data, fy.Dims, ys, th, emit)
	default:
		return probeListLinf(fx.Data, int(xi), fy.Data, fy.Dims, ys, th, emit)
	}
}

// ProbeRangeFlat tests point xi of fx against the contiguous index range
// [lo, hi) of fy, calling emit(j) for hits. The inner side walks memory
// sequentially — this is the nested-loop (brute) kernel, and the fastest
// per-candidate path in the package because every load is a stride-1
// prefetchable access.
func ProbeRangeFlat(m Metric, fx Flat, xi int32, fy Flat, lo, hi int, th float64, emit func(j int32)) (cand, res int64) {
	switch m {
	case L2:
		return probeRangeL2(fx.Data, int(xi), fy.Data, fy.Dims, lo, hi, th, emit)
	case L1:
		return probeRangeL1(fx.Data, int(xi), fy.Data, fy.Dims, lo, hi, th, emit)
	default:
		return probeRangeLinf(fx.Data, int(xi), fy.Data, fy.Dims, lo, hi, th, emit)
	}
}

// ProbeQueryFlat tests an external query point q against every index in ys
// over f, calling emit(yi) for hits. th must be Threshold(m, eps).
func ProbeQueryFlat(m Metric, q []float64, f Flat, ys []int32, th float64, emit func(yi int32)) (cand, res int64) {
	data, dims := f.Data, f.Dims
	switch m {
	case L2:
		for _, yi := range ys {
			iy := int(yi) * dims
			cand++
			if WithinSqL2(q, data[iy:iy+dims:iy+dims], th) {
				res++
				emit(yi)
			}
		}
	case L1:
		for _, yi := range ys {
			iy := int(yi) * dims
			cand++
			if WithinL1(q, data[iy:iy+dims:iy+dims], th) {
				res++
				emit(yi)
			}
		}
	default:
		for _, yi := range ys {
			iy := int(yi) * dims
			cand++
			if WithinLinf(q, data[iy:iy+dims:iy+dims], th) {
				res++
				emit(yi)
			}
		}
	}
	return
}
