package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randFlat builds a deterministic point set with clustered structure so
// every eps below has both hits and misses.
func randFlat(t testing.TB, n, dims int, seed int64) Flat {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*dims)
	for i := 0; i < n; i++ {
		center := float64(rng.Intn(4))
		for k := 0; k < dims; k++ {
			data[i*dims+k] = center + rng.NormFloat64()*0.3
		}
	}
	return FlatView(dims, data)
}

// sortedBy returns 0..n-1 ordered by coordinate dim.
func sortedBy(f Flat, dim int) []int32 {
	idx := make([]int32, f.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		return f.Data[int(idx[a])*f.Dims+dim] < f.Data[int(idx[b])*f.Dims+dim]
	})
	return idx
}

type pair struct{ i, j int32 }

func canon(p pair) pair {
	if p.i > p.j {
		return pair{p.j, p.i}
	}
	return p
}

// referencePairs computes the expected self-join pair set with the
// original slice predicate — the oracle the flat kernels must match.
func referencePairs(f Flat, m Metric, eps float64) map[pair]bool {
	th := Threshold(m, eps)
	out := make(map[pair]bool)
	for i := 0; i < f.Len(); i++ {
		for j := i + 1; j < f.Len(); j++ {
			if Within(m, f.At(i), f.At(j), th) {
				out[pair{int32(i), int32(j)}] = true
			}
		}
	}
	return out
}

func samePairs(t *testing.T, name string, want map[pair]bool, got map[pair]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Errorf("%s: missing pair %v", name, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("%s: extra pair %v", name, p)
		}
	}
}

// sweepTestDims are the dimensionalities the sweep reference tests run: the
// small ones, every generated width and the widths on either side of it.
func sweepTestDims() []int {
	dims := []int{1, 2, 3, 4, 5}
	for _, w := range fixedWidths {
		dims = append(dims, w-1, w, w+1)
	}
	return dims
}

// distQuantiles returns the distances under m at quantiles qs of all pairs
// (x, y) with x from fx and y from fy, so a test's ε has hits and misses at
// any d and sits exactly on some pair's distance.
func distQuantiles(m Metric, fx, fy Flat, qs ...float64) []float64 {
	var ds []float64
	for i := 0; i < fx.Len(); i++ {
		for j := 0; j < fy.Len(); j++ {
			ds = append(ds, Dist(m, fx.At(i), fy.At(j)))
		}
	}
	sort.Float64s(ds)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = ds[int(q*float64(len(ds)-1))]
	}
	return out
}

func TestSelfSweepFlatMatchesReference(t *testing.T) {
	for _, dims := range sweepTestDims() {
		for _, m := range []Metric{L2, L1, Linf} {
			f := randFlat(t, 120, dims, int64(dims)*7+int64(m))
			for _, eps := range distQuantiles(m, f, f, 0.01, 0.1, 0.4) {
				want := referencePairs(f, m, eps)
				for _, sweepDim := range []int{0, dims - 1} {
					idx := sortedBy(f, sweepDim)
					got := make(map[pair]bool)
					cand, res := SelfSweepFlat(m, f, idx, sweepDim, eps, Threshold(m, eps), func(i, j int32) {
						got[canon(pair{i, j})] = true
					})
					samePairs(t, m.String(), want, got)
					if res != int64(len(got)) || cand < res {
						t.Fatalf("%s d%d: res %d != %d hits, cand %d", m, dims, res, len(got), cand)
					}
				}
			}
		}
	}
}

func TestCrossSweepFlatMatchesReference(t *testing.T) {
	for _, dims := range sweepTestDims() {
		for _, m := range []Metric{L2, L1, Linf} {
			fx := randFlat(t, 90, dims, int64(dims)*13+int64(m))
			fy := randFlat(t, 70, dims, int64(dims)*29+int64(m))
			eps := distQuantiles(m, fx, fy, 0.1)[0]
			th := Threshold(m, eps)
			want := make(map[pair]bool)
			for i := 0; i < fx.Len(); i++ {
				for j := 0; j < fy.Len(); j++ {
					if Within(m, fx.At(i), fy.At(j), th) {
						want[pair{int32(i), int32(j)}] = true
					}
				}
			}
			sweepDim := dims / 2
			got := make(map[pair]bool)
			CrossSweepFlat(m, fx, fy, sortedBy(fx, sweepDim), sortedBy(fy, sweepDim), sweepDim, eps, th, func(xi, yi int32) {
				got[pair{xi, yi}] = true
			})
			samePairs(t, m.String(), want, got)
		}
	}
}

func TestProbeKernelsMatchReference(t *testing.T) {
	for _, m := range []Metric{L2, L1, Linf} {
		f := randFlat(t, 80, 7, 3+int64(m))
		eps := 0.7
		th := Threshold(m, eps)
		want := referencePairs(f, m, eps)

		gotList := make(map[pair]bool)
		gotRange := make(map[pair]bool)
		gotQuery := make(map[pair]bool)
		ys := make([]int32, f.Len())
		for i := range ys {
			ys[i] = int32(i)
		}
		for i := 0; i < f.Len(); i++ {
			i := int32(i)
			ProbeListFlat(m, f, i, f, ys[i+1:], th, func(yi int32) { gotList[pair{i, yi}] = true })
			ProbeRangeFlat(m, f, i, f, int(i)+1, f.Len(), th, func(j int32) { gotRange[pair{i, j}] = true })
			ProbeQueryFlat(m, f.At(int(i)), f, ys[i+1:], th, func(yi int32) { gotQuery[pair{i, yi}] = true })
		}
		samePairs(t, "ProbeListFlat/"+m.String(), want, gotList)
		samePairs(t, "ProbeRangeFlat/"+m.String(), want, gotRange)
		samePairs(t, "ProbeQueryFlat/"+m.String(), want, gotQuery)
	}
}

// TestFlatKernelsEpsBoundary pins the inclusive contract: pairs at exactly
// ε are in, pairs one ULP past it are out. 0.25 and its square are exactly
// representable, so there is no rounding slack in the expected answer.
func TestFlatKernelsEpsBoundary(t *testing.T) {
	const eps = 0.25
	data := []float64{
		0, 0, // 0: origin
		eps, 0, // 1: at exactly eps (L2, L1, Linf)
		math.Nextafter(eps, 1), 0, // 2: one ULP past eps
		0.1, 0.2, // 3: inside for L2/L1/Linf
	}
	f := FlatView(2, data)
	for _, m := range []Metric{L2, L1, Linf} {
		idx := sortedBy(f, 0)
		got := make(map[pair]bool)
		SelfSweepFlat(m, f, idx, 0, eps, Threshold(m, eps), func(i, j int32) {
			got[canon(pair{i, j})] = true
		})
		if !got[pair{0, 1}] {
			t.Errorf("%s: pair at exactly eps not reported", m)
		}
		if got[pair{0, 2}] {
			t.Errorf("%s: pair one ULP past eps reported", m)
		}
		want := referencePairs(f, m, eps)
		samePairs(t, m.String(), want, got)
	}
}

// selfLoop and crossLoop are the L2 sweep loops' signatures, so tests and
// benchmarks can run the any-d and the generated loops side by side.
type (
	selfLoop  func(data []float64, dims int, ks []float64, stride int, idx []int32, win, epsSq float64, emit func(i, j int32)) (cand, res int64)
	crossLoop func(dx, dy []float64, dims int, kx, ky []float64, stride int, xs, ys []int32, win, epsSq float64, emit func(xi, yi int32)) (cand, res int64)
)

// fixedLoops returns the generated L2 sweep loops at width d behind the
// any-d signatures: the one-candidate loops at lanes 1, the four-lane
// loops at lanes 4.
func fixedLoops(tb testing.TB, d, lanes int) (selfLoop, crossLoop) {
	type (
		self  func(data, ks []float64, stride int, idx []int32, win, epsSq float64, emit func(i, j int32)) (cand, res int64)
		cross func(dx, dy, kx, ky []float64, stride int, xs, ys []int32, win, epsSq float64, emit func(xi, yi int32)) (cand, res int64)
		loops struct {
			self  self
			cross cross
		}
	)
	l, ok := map[int]map[int]loops{
		8:  {1: {selfSweepL2D8, crossSweepL2D8}, 4: {selfSweepL2D8x4, crossSweepL2D8x4}},
		16: {1: {selfSweepL2D16, crossSweepL2D16}, 4: {selfSweepL2D16x4, crossSweepL2D16x4}},
		32: {1: {selfSweepL2D32, crossSweepL2D32}, 4: {selfSweepL2D32x4, crossSweepL2D32x4}},
		64: {1: {selfSweepL2D64, crossSweepL2D64}, 4: {selfSweepL2D64x4, crossSweepL2D64x4}},
	}[d][lanes]
	if !ok {
		tb.Fatalf("no generated loop at d = %d, lanes = %d", d, lanes)
	}
	return func(data []float64, _ int, ks []float64, stride int, idx []int32, win, epsSq float64, emit func(i, j int32)) (cand, res int64) {
			return l.self(data, ks, stride, idx, win, epsSq, emit)
		}, func(dx, dy []float64, _ int, kx, ky []float64, stride int, xs, ys []int32, win, epsSq float64, emit func(xi, yi int32)) (cand, res int64) {
			return l.cross(dx, dy, kx, ky, stride, xs, ys, win, epsSq, emit)
		}
}

// sweepRun is one sweep loop's full output: its counts and every emitted
// pair in emission order.
type sweepRun struct {
	cand, res int64
	pairs     []pair
}

// runSelf and runCross run one sweep loop and record its full output.
func runSelf(loop selfLoop, data []float64, dims int, keys Keys, idx []int32, win, th float64) sweepRun {
	var r sweepRun
	r.cand, r.res = loop(data, dims, keys.Data, keys.Stride, idx, win, th, func(i, j int32) { r.pairs = append(r.pairs, pair{i, j}) })
	return r
}

func runCross(loop crossLoop, data []float64, dims int, keys Keys, xs, ys []int32, win, th float64) sweepRun {
	var r sweepRun
	r.cand, r.res = loop(data, data, dims, keys.Data, keys.Data, keys.Stride, xs, ys, win, th, func(i, j int32) { r.pairs = append(r.pairs, pair{i, j}) })
	return r
}

func (r sweepRun) equal(o sweepRun) bool {
	return r.cand == o.cand && r.res == o.res && slices.Equal(r.pairs, o.pairs)
}

// sameSweeps runs the one-lane and the four-lane loop at width d, self and
// cross, over one fixture, and fails unless both give the same counts and
// the same pairs in the same order. It returns the one-lane runs.
func sameSweeps(t *testing.T, name string, d int, data []float64, keys Keys, idx, xs, ys []int32, win, th float64) (self, cross sweepRun) {
	t.Helper()
	self1, cross1 := fixedLoops(t, d, 1)
	self4, cross4 := fixedLoops(t, d, 4)
	self = runSelf(self1, data, d, keys, idx, win, th)
	if got := runSelf(self4, data, d, keys, idx, win, th); !got.equal(self) {
		t.Errorf("d%d %s self: lanes=4 (cand %d, res %d, pairs %v) differs from lanes=1 (cand %d, res %d, pairs %v)",
			d, name, got.cand, got.res, got.pairs, self.cand, self.res, self.pairs)
	}
	cross = runCross(cross1, data, d, keys, xs, ys, win, th)
	if got := runCross(cross4, data, d, keys, xs, ys, win, th); !got.equal(cross) {
		t.Errorf("d%d %s cross: lanes=4 (cand %d, res %d, pairs %v) differs from lanes=1 (cand %d, res %d, pairs %v)",
			d, name, got.cand, got.res, got.pairs, cross.cand, cross.res, cross.pairs)
	}
	return self, cross
}

// TestFixedSweepsMatchGeneric holds every generated loop to the any-d loop
// it replaces, on raw keys and on a pivot-style key table: the same
// candidate and hit counts and the same pairs in the same order. Engines
// charge their counters from these counts, so this identity is what keeps
// candidates, dist_comps and pairs bit-identical across the dispatch.
// Then it holds each four-lane loop to its one-lane loop where lanes can go
// wrong: every window length from 1 to 9 (every split into groups of four
// and a tail), a group exit at every check position from every lane, and
// ±Inf and NaN coordinates beside NaN and unsorted keys.
func TestFixedSweepsMatchGeneric(t *testing.T) {
	for _, dims := range fixedWidths {
		f := randFlat(t, 300, dims, int64(dims))
		// Pivot-style table: distances to three of the points, Stride 3.
		const stride = 3
		piv := make([]float64, f.Len()*stride)
		for i := 0; i < f.Len(); i++ {
			for k := 0; k < stride; k++ {
				piv[i*stride+k] = Dist(L2, f.At(i), f.At(k*97))
			}
		}
		eps := distQuantiles(L2, f, f, 0.05)[0]
		epsSq := Threshold(L2, eps)
		self1, cross1 := fixedLoops(t, dims, 1)
		self4, cross4 := fixedLoops(t, dims, 4)
		for _, kt := range []struct {
			name string
			keys Keys
			key  int
		}{
			{"raw", Keys{dims, f.Data}, dims / 2},
			{"pivot", Keys{stride, piv}, 1},
		} {
			keys := Keys{kt.keys.Stride, kt.keys.column(kt.key)}
			order := func(lo, hi int) []int32 {
				idx := make([]int32, hi-lo)
				for i := range idx {
					idx[i] = int32(lo + i)
				}
				sort.Slice(idx, func(a, b int) bool { return keys.Data[int(idx[a])*keys.Stride] < keys.Data[int(idx[b])*keys.Stride] })
				return idx
			}
			all, xs, ys := order(0, f.Len()), order(0, 140), order(140, f.Len())
			generic := runSelf(selfSweepL2Any, f.Data, dims, keys, all, eps, epsSq)
			genericX := runCross(crossSweepL2Any, f.Data, dims, keys, xs, ys, eps, epsSq)
			for _, c := range []struct {
				loop           string
				fixed, generic sweepRun
			}{
				{"self", runSelf(selfSweepL2, f.Data, dims, keys, all, eps, epsSq), generic},
				{"self lanes=1", runSelf(self1, f.Data, dims, keys, all, eps, epsSq), generic},
				{"self lanes=4", runSelf(self4, f.Data, dims, keys, all, eps, epsSq), generic},
				{"cross", runCross(crossSweepL2, f.Data, dims, keys, xs, ys, eps, epsSq), genericX},
				{"cross lanes=1", runCross(cross1, f.Data, dims, keys, xs, ys, eps, epsSq), genericX},
				{"cross lanes=4", runCross(cross4, f.Data, dims, keys, xs, ys, eps, epsSq), genericX},
			} {
				if c.generic.res == 0 || c.generic.res == c.generic.cand {
					t.Fatalf("d%d %s %s: degenerate fixture, %d hits of %d candidates", dims, kt.name, c.loop, c.generic.res, c.generic.cand)
				}
				if !c.fixed.equal(c.generic) {
					t.Errorf("d%d %s %s: fixed loop (cand %d, res %d, %d pairs) differs from any-d loop (cand %d, res %d, %d pairs)",
						dims, kt.name, c.loop, c.fixed.cand, c.fixed.res, len(c.fixed.pairs), c.generic.cand, c.generic.res, len(c.generic.pairs))
				}
			}
		}
		t.Run(fmt.Sprintf("d=%d/windows", dims), func(t *testing.T) { laneWindows(t, dims) })
		t.Run(fmt.Sprintf("d=%d/exits", dims), func(t *testing.T) { laneExits(t, dims) })
		t.Run(fmt.Sprintf("d=%d/nonfinite", dims), func(t *testing.T) { laneNonFinite(t, dims) })
	}
}

// laneWindows sweeps lists whose keys make every window length from 1 to 9
// occur, both where the window ends at a key past it and where it ends at
// the list's end.
func laneWindows(t *testing.T, d int) {
	rng := rand.New(rand.NewSource(int64(d)))
	seen := make(map[int]bool)
	for trial := 0; trial < 60; trial++ {
		n := 2 + trial%12
		f := randFlat(t, n, d, int64(trial))
		// Keys in runs of equal values one apart; win 0.5 makes each
		// window the rest of its run.
		keys := make([]float64, n)
		for i := 1; i < n; i++ {
			keys[i] = keys[i-1]
			if rng.Intn(10) == 0 {
				keys[i]++
			}
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		for a := range keys {
			b := a + 1
			for b < n && keys[b]-keys[a] <= 0.5 {
				b++
			}
			seen[b-a-1] = true
		}
		eps := distQuantiles(L2, f, f, 0.5)[0]
		sameSweeps(t, fmt.Sprintf("trial %d", trial), d, f.Data, Keys{1, keys}, idx, idx[:1], idx[1:], 0.5, Threshold(L2, eps))
	}
	for w := 1; w <= 9; w++ {
		if !seen[w] {
			t.Errorf("no window of length %d", w)
		}
	}
}

// laneExits builds, for every lane and every check position (d = 8 has
// none), a group whose lane exits there while the other three lanes
// accept, exit at the same check, exit at the first check, or reject only
// at the end. A candidate
// differs from point 0 (the origin) in one dimension only, by 2ε to be
// rejected once that dimension is summed, by exactly ε to be accepted on
// the boundary. Every key is 0, so every window runs to the list's end.
func laneExits(t *testing.T, d int) {
	const eps = 0.25
	th := Threshold(L2, eps)
	// at returns a candidate rejected from dimension k on; k < 0 accepts.
	at := func(k int) []float64 {
		p := make([]float64, d)
		if k < 0 {
			p[d-1] = eps
		} else {
			p[k] = 2 * eps
		}
		return p
	}
	for check := 8; check < d; check += 8 {
		for lane := 0; lane < 4; lane++ {
			for _, other := range []int{-1, check - 1, 0, d - 1} {
				pts := make([]float64, d, 5*d)
				for l := 0; l < 4; l++ {
					k := other
					if l == lane {
						k = check - 1
					}
					pts = append(pts, at(k)...)
				}
				idx := []int32{0, 1, 2, 3, 4}
				self, _ := sameSweeps(t, fmt.Sprintf("lane %d exits at %d, others at %d", lane, check, other), d, pts, Keys{1, make([]float64, 5)}, idx, idx[:1], idx[1:], 0, th)
				if self.cand != 10 {
					t.Fatalf("d%d: %d candidates, want 10", d, self.cand)
				}
			}
		}
	}
}

// laneNonFinite sweeps random points with ±Inf and NaN coordinates in
// random places, under key tables with NaN keys, unsorted keys and NaN as
// the sweeping point's own key.
func laneNonFinite(t *testing.T, d int) {
	rng := rand.New(rand.NewSource(int64(d) + 1))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 40; trial++ {
		n := 2 + trial%10
		f := randFlat(t, n, d, int64(trial))
		for k := rng.Intn(3 * n); k > 0; k-- {
			f.Data[rng.Intn(len(f.Data))] = special[rng.Intn(len(special))]
		}
		keys := make([]float64, n)
		for i := range keys {
			switch rng.Intn(4) {
			case 0:
				keys[i] = math.NaN()
			case 1:
				keys[i] = rng.Float64()
			default:
				keys[i] = float64(i) / float64(n)
			}
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		h := n / 2
		eps := distQuantiles(L2, f, f, 0.5)[0]
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 1
		}
		sameSweeps(t, fmt.Sprintf("trial %d", trial), d, f.Data, Keys{1, keys}, idx, idx[:h], idx[h:], 0.3, Threshold(L2, eps))
	}
}

// canonicalSqL2 is the one summation order every L2 accept test must
// reproduce (docs/KERNELS.md, "Accumulation order"): four-wide blocks,
// each summed left to right and added to the running sum in order, then a
// sequential tail.
func canonicalSqL2(a, b []float64) float64 {
	var s float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		d0, d1, d2, d3 := a[k]-b[k], a[k+1]-b[k+1], a[k+2]-b[k+2], a[k+3]-b[k+3]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
	}
	for ; k < len(a); k++ {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

// l2Decisions runs the pair (a, b) through every L2 loop in the package at
// threshold th and returns each loop's accept decision by name. At a
// generated width the pair also runs as every lane of a four-lane group.
func l2Decisions(t *testing.T, a, b []float64, th float64) map[string]bool {
	d := len(a)
	f := FlatView(d, append(slices.Clone(a), b...))
	fa, fb := FlatView(d, a), FlatView(d, b)
	zero, pair := []int32{0}, []int32{0, 1}
	win := math.Inf(1)
	hit := func(_, res int64) bool { return res == 1 }
	out := map[string]bool{
		"WithinSqL2":      WithinSqL2(a, b, th),
		"selfSweepL2Any":  hit(selfSweepL2Any(f.Data, d, f.Data, d, pair, win, th, func(i, j int32) {})),
		"crossSweepL2Any": hit(crossSweepL2Any(fa.Data, fb.Data, d, fa.Data, fb.Data, d, zero, zero, win, th, func(i, j int32) {})),
		"ProbeListFlat":   hit(ProbeListFlat(L2, fa, 0, fb, zero, th, func(int32) {})),
		"ProbeRangeFlat":  hit(ProbeRangeFlat(L2, fa, 0, fb, 0, 1, th, func(int32) {})),
		"ProbeQueryFlat":  hit(ProbeQueryFlat(L2, a, fb, zero, th, func(int32) {})),
	}
	// At a generated width these reach the fixed-width loops.
	out[fmt.Sprintf("selfSweepL2/d=%d", d)] = hit(selfSweepL2(f.Data, d, f.Data, d, pair, win, th, func(i, j int32) {}))
	out[fmt.Sprintf("crossSweepL2/d=%d", d)] = hit(crossSweepL2(fa.Data, fb.Data, d, fa.Data, fb.Data, d, zero, zero, win, th, func(i, j int32) {}))
	if slices.Contains(fixedWidths, d) {
		// Point 0 is a, points 1–4 copies of b: one group of four lanes
		// in the four-lane loops, four single candidates in the others.
		g := FlatView(d, slices.Concat(a, b, b, b, b))
		group := []int32{0, 1, 2, 3, 4}
		for _, lanes := range []int{1, 4} {
			self, cross := fixedLoops(t, d, lanes)
			var selfHit, crossHit [4]bool
			self(g.Data, d, g.Data, d, group, win, th, func(i, j int32) {
				if i == 0 {
					selfHit[j-1] = true
				}
			})
			cross(g.Data, g.Data, d, g.Data, g.Data, d, group[:1], group[1:], win, th, func(_, j int32) { crossHit[j-1] = true })
			for l := range 4 {
				out[fmt.Sprintf("selfSweepL2D%d/lanes=%d/lane=%d", d, lanes, l)] = selfHit[l]
				out[fmt.Sprintf("crossSweepL2D%d/lanes=%d/lane=%d", d, lanes, l)] = crossHit[l]
			}
		}
	}
	return out
}

// TestL2AccumulationOrder makes the shared summation order a tested rule.
// Random normal coordinates are not dyadic, so the rounding of every
// addition matters and a loop that adds the same terms in any other order
// lands at least an ULP away from the canonical sum s on a good share of
// pairs. Each loop must accept at th = s and reject at the float just
// below it, at every d from 1 to 70: every generated width, and every tail
// shape of the any-d body.
func TestL2AccumulationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for d := 1; d <= 70; d++ {
		for trial := 0; trial < 200; trial++ {
			a, b := randVec(rng, d), randVec(rng, d)
			s := canonicalSqL2(a, b)
			if got := DistSqL2(a, b); got != s {
				t.Fatalf("d%d: DistSqL2 = %v, canonical sum %v", d, got, s)
			}
			for _, tc := range []struct {
				th   float64
				want bool
			}{{s, true}, {math.Nextafter(s, 0), false}} {
				for name, got := range l2Decisions(t, a, b, tc.th) {
					if got != tc.want {
						t.Errorf("d%d trial %d: %s decides %v at th = %v (canonical sum %v)", d, trial, name, got, tc.th, s)
					}
				}
			}
		}
	}
}
