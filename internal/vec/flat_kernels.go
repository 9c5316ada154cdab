package vec

// This file holds the loop bodies behind the Flat kernel entry points.
//
// The L2 distance test is written out inline in every loop: the four-wide
// unrolled accumulation is far past the inliner's budget as a helper, and
// a per-candidate call is exactly the overhead this package exists to
// remove. L1 and L∞ go through the shared predicates — they are off the
// default path and their loop bodies are cheap either way.
//
// The L2 sweeps dispatch on dims in flat_kernels_gen.go: the widths it
// lists run a fully unrolled loop rendered from the template in
// flat_kernels_gen_test.go (at the widths in its laneWidths, one that
// tests four window candidates in lockstep); every other width runs the
// loops below.

// selfSweepL2Any is selfSweepL2 at any d: one sweep-sorted list against
// itself.
func selfSweepL2Any(data []float64, dims int, ks []float64, stride int, idx []int32, win, epsSq float64, emit func(i, j int32)) (cand, res int64) {
	for a := 0; a+1 < len(idx); a++ {
		ia := int(idx[a]) * dims
		pa := data[ia : ia+dims : ia+dims]
		x := ks[int(idx[a])*stride]
		for b := a + 1; b < len(idx); b++ {
			if ks[int(idx[b])*stride]-x > win {
				break
			}
			ib := int(idx[b]) * dims
			pb := data[ib : ib+dims : ib+dims]
			cand++
			var s float64
			k := 0
			ok := true
			for ; k+8 <= dims; k += 8 {
				d0 := pa[k] - pb[k]
				d1 := pa[k+1] - pb[k+1]
				d2 := pa[k+2] - pb[k+2]
				d3 := pa[k+3] - pb[k+3]
				s += d0*d0 + d1*d1 + d2*d2 + d3*d3
				d0 = pa[k+4] - pb[k+4]
				d1 = pa[k+5] - pb[k+5]
				d2 = pa[k+6] - pb[k+6]
				d3 = pa[k+7] - pb[k+7]
				s += d0*d0 + d1*d1 + d2*d2 + d3*d3
				if s > epsSq {
					ok = false
					break
				}
			}
			if ok && k+4 <= dims {
				d0 := pa[k] - pb[k]
				d1 := pa[k+1] - pb[k+1]
				d2 := pa[k+2] - pb[k+2]
				d3 := pa[k+3] - pb[k+3]
				s += d0*d0 + d1*d1 + d2*d2 + d3*d3
				k += 4
				ok = s <= epsSq
			}
			if ok {
				for ; k < dims; k++ {
					d := pa[k] - pb[k]
					s += d * d
				}
				if s <= epsSq {
					res++
					emit(idx[a], idx[b])
				}
			}
		}
	}
	return
}

// crossSweepL2Any is crossSweepL2 at any d: two sweep-sorted lists merged
// with an ε window.
func crossSweepL2Any(dx, dy []float64, dims int, kx, ky []float64, stride int, xs, ys []int32, win, epsSq float64, emit func(xi, yi int32)) (cand, res int64) {
	lo := 0
	for _, xr := range xs {
		ix := int(xr) * dims
		px := dx[ix : ix+dims : ix+dims]
		v := kx[int(xr)*stride]
		for lo < len(ys) && ky[int(ys[lo])*stride] < v-win {
			lo++
		}
		for w := lo; w < len(ys); w++ {
			if ky[int(ys[w])*stride]-v > win {
				break
			}
			iy := int(ys[w]) * dims
			py := dy[iy : iy+dims : iy+dims]
			cand++
			var s float64
			k := 0
			ok := true
			for ; k+8 <= dims; k += 8 {
				d0 := px[k] - py[k]
				d1 := px[k+1] - py[k+1]
				d2 := px[k+2] - py[k+2]
				d3 := px[k+3] - py[k+3]
				s += d0*d0 + d1*d1 + d2*d2 + d3*d3
				d0 = px[k+4] - py[k+4]
				d1 = px[k+5] - py[k+5]
				d2 = px[k+6] - py[k+6]
				d3 = px[k+7] - py[k+7]
				s += d0*d0 + d1*d1 + d2*d2 + d3*d3
				if s > epsSq {
					ok = false
					break
				}
			}
			if ok && k+4 <= dims {
				d0 := px[k] - py[k]
				d1 := px[k+1] - py[k+1]
				d2 := px[k+2] - py[k+2]
				d3 := px[k+3] - py[k+3]
				s += d0*d0 + d1*d1 + d2*d2 + d3*d3
				k += 4
				ok = s <= epsSq
			}
			if ok {
				for ; k < dims; k++ {
					d := px[k] - py[k]
					s += d * d
				}
				if s <= epsSq {
					res++
					emit(xr, ys[w])
				}
			}
		}
	}
	return
}

// selfSweepL1 is SelfSweepFlat's L1 loop.
func selfSweepL1(data []float64, dims int, ks []float64, stride int, idx []int32, win, th float64, emit func(i, j int32)) (cand, res int64) {
	for a := 0; a+1 < len(idx); a++ {
		ia := int(idx[a]) * dims
		pa := data[ia : ia+dims : ia+dims]
		x := ks[int(idx[a])*stride]
		for b := a + 1; b < len(idx); b++ {
			if ks[int(idx[b])*stride]-x > win {
				break
			}
			ib := int(idx[b]) * dims
			pb := data[ib : ib+dims : ib+dims]
			cand++
			if WithinL1(pa, pb, th) {
				res++
				emit(idx[a], idx[b])
			}
		}
	}
	return
}

// crossSweepL1 is CrossSweepFlat's L1 loop.
func crossSweepL1(dx, dy []float64, dims int, kx, ky []float64, stride int, xs, ys []int32, win, th float64, emit func(xi, yi int32)) (cand, res int64) {
	lo := 0
	for _, xr := range xs {
		ix := int(xr) * dims
		px := dx[ix : ix+dims : ix+dims]
		v := kx[int(xr)*stride]
		for lo < len(ys) && ky[int(ys[lo])*stride] < v-win {
			lo++
		}
		for w := lo; w < len(ys); w++ {
			if ky[int(ys[w])*stride]-v > win {
				break
			}
			iy := int(ys[w]) * dims
			py := dy[iy : iy+dims : iy+dims]
			cand++
			if WithinL1(px, py, th) {
				res++
				emit(xr, ys[w])
			}
		}
	}
	return
}

// selfSweepLinf is SelfSweepFlat's L∞ loop.
func selfSweepLinf(data []float64, dims int, ks []float64, stride int, idx []int32, win, th float64, emit func(i, j int32)) (cand, res int64) {
	for a := 0; a+1 < len(idx); a++ {
		ia := int(idx[a]) * dims
		pa := data[ia : ia+dims : ia+dims]
		x := ks[int(idx[a])*stride]
		for b := a + 1; b < len(idx); b++ {
			if ks[int(idx[b])*stride]-x > win {
				break
			}
			ib := int(idx[b]) * dims
			pb := data[ib : ib+dims : ib+dims]
			cand++
			if WithinLinf(pa, pb, th) {
				res++
				emit(idx[a], idx[b])
			}
		}
	}
	return
}

// crossSweepLinf is CrossSweepFlat's L∞ loop.
func crossSweepLinf(dx, dy []float64, dims int, kx, ky []float64, stride int, xs, ys []int32, win, th float64, emit func(xi, yi int32)) (cand, res int64) {
	lo := 0
	for _, xr := range xs {
		ix := int(xr) * dims
		px := dx[ix : ix+dims : ix+dims]
		v := kx[int(xr)*stride]
		for lo < len(ys) && ky[int(ys[lo])*stride] < v-win {
			lo++
		}
		for w := lo; w < len(ys); w++ {
			if ky[int(ys[w])*stride]-v > win {
				break
			}
			iy := int(ys[w]) * dims
			py := dy[iy : iy+dims : iy+dims]
			cand++
			if WithinLinf(px, py, th) {
				res++
				emit(xr, ys[w])
			}
		}
	}
	return
}

// probeListL2 is ProbeListFlat's L2 loop: one point against an index list.
func probeListL2(dx []float64, xi int, dy []float64, dims int, ys []int32, epsSq float64, emit func(yi int32)) (cand, res int64) {
	ix := xi * dims
	px := dx[ix : ix+dims : ix+dims]
	for _, yr := range ys {
		iy := int(yr) * dims
		py := dy[iy : iy+dims : iy+dims]
		cand++
		var s float64
		k := 0
		ok := true
		for ; k+8 <= dims; k += 8 {
			d0 := px[k] - py[k]
			d1 := px[k+1] - py[k+1]
			d2 := px[k+2] - py[k+2]
			d3 := px[k+3] - py[k+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
			d0 = px[k+4] - py[k+4]
			d1 = px[k+5] - py[k+5]
			d2 = px[k+6] - py[k+6]
			d3 = px[k+7] - py[k+7]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
			if s > epsSq {
				ok = false
				break
			}
		}
		if ok && k+4 <= dims {
			d0 := px[k] - py[k]
			d1 := px[k+1] - py[k+1]
			d2 := px[k+2] - py[k+2]
			d3 := px[k+3] - py[k+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
			k += 4
			ok = s <= epsSq
		}
		if ok {
			for ; k < dims; k++ {
				d := px[k] - py[k]
				s += d * d
			}
			if s <= epsSq {
				res++
				emit(yr)
			}
		}
	}
	return
}

// probeListL1 is ProbeListFlat's L1 loop.
func probeListL1(dx []float64, xi int, dy []float64, dims int, ys []int32, th float64, emit func(yi int32)) (cand, res int64) {
	ix := xi * dims
	px := dx[ix : ix+dims : ix+dims]
	for _, yr := range ys {
		iy := int(yr) * dims
		cand++
		if WithinL1(px, dy[iy:iy+dims:iy+dims], th) {
			res++
			emit(yr)
		}
	}
	return
}

// probeListLinf is ProbeListFlat's L∞ loop.
func probeListLinf(dx []float64, xi int, dy []float64, dims int, ys []int32, th float64, emit func(yi int32)) (cand, res int64) {
	ix := xi * dims
	px := dx[ix : ix+dims : ix+dims]
	for _, yr := range ys {
		iy := int(yr) * dims
		cand++
		if WithinLinf(px, dy[iy:iy+dims:iy+dims], th) {
			res++
			emit(yr)
		}
	}
	return
}

// probeRangeL2 is ProbeRangeFlat's L2 loop: one point against a contiguous
// block, the stride-1 nested-loop kernel.
func probeRangeL2(dx []float64, xi int, dy []float64, dims int, lo, hi int, epsSq float64, emit func(j int32)) (cand, res int64) {
	ix := xi * dims
	px := dx[ix : ix+dims : ix+dims]
	for j := lo; j < hi; j++ {
		iy := j * dims
		py := dy[iy : iy+dims : iy+dims]
		cand++
		var s float64
		k := 0
		ok := true
		for ; k+8 <= dims; k += 8 {
			d0 := px[k] - py[k]
			d1 := px[k+1] - py[k+1]
			d2 := px[k+2] - py[k+2]
			d3 := px[k+3] - py[k+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
			d0 = px[k+4] - py[k+4]
			d1 = px[k+5] - py[k+5]
			d2 = px[k+6] - py[k+6]
			d3 = px[k+7] - py[k+7]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
			if s > epsSq {
				ok = false
				break
			}
		}
		if ok && k+4 <= dims {
			d0 := px[k] - py[k]
			d1 := px[k+1] - py[k+1]
			d2 := px[k+2] - py[k+2]
			d3 := px[k+3] - py[k+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
			k += 4
			ok = s <= epsSq
		}
		if ok {
			for ; k < dims; k++ {
				d := px[k] - py[k]
				s += d * d
			}
			if s <= epsSq {
				res++
				emit(int32(j))
			}
		}
	}
	return
}

// probeRangeL1 is ProbeRangeFlat's L1 loop.
func probeRangeL1(dx []float64, xi int, dy []float64, dims int, lo, hi int, th float64, emit func(j int32)) (cand, res int64) {
	ix := xi * dims
	px := dx[ix : ix+dims : ix+dims]
	for j := lo; j < hi; j++ {
		iy := j * dims
		cand++
		if WithinL1(px, dy[iy:iy+dims:iy+dims], th) {
			res++
			emit(int32(j))
		}
	}
	return
}

// probeRangeLinf is ProbeRangeFlat's L∞ loop.
func probeRangeLinf(dx []float64, xi int, dy []float64, dims int, lo, hi int, th float64, emit func(j int32)) (cand, res int64) {
	ix := xi * dims
	px := dx[ix : ix+dims : ix+dims]
	for j := lo; j < hi; j++ {
		iy := j * dims
		cand++
		if WithinLinf(px, dy[iy:iy+dims:iy+dims], th) {
			res++
			emit(int32(j))
		}
	}
	return
}
