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

func TestFlatRoundTrip(t *testing.T) {
	f := randFlat(t, 17, 5, 1)
	g := FlatFromSlices(f.Slices())
	if g.Dims != f.Dims || len(g.Data) != len(f.Data) {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g.Dims, len(g.Data), f.Dims, len(f.Data))
	}
	for i, v := range f.Data {
		if g.Data[i] != v {
			t.Fatalf("round trip changed Data[%d]: %g vs %g", i, g.Data[i], v)
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

// sweepRun is one sweep loop's full output: its counts and every emitted
// pair in emission order.
type sweepRun struct {
	cand, res int64
	pairs     []pair
}

// TestFixedSweepsMatchGeneric holds every generated loop to the any-d loop
// it replaces, on raw keys and on a pivot-style key table: the same
// candidate and hit counts and the same pairs in the same order. Engines
// charge their counters from these counts, so this identity is what keeps
// candidates, dist_comps and pairs bit-identical across the dispatch.
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
		for _, kt := range []struct {
			name string
			keys Keys
			key  int
		}{
			{"raw", Keys{dims, f.Data}, dims / 2},
			{"pivot", Keys{stride, piv}, 1},
		} {
			ks := kt.keys.column(kt.key)
			order := func(lo, hi int) []int32 {
				idx := make([]int32, hi-lo)
				for i := range idx {
					idx[i] = int32(lo + i)
				}
				sort.Slice(idx, func(a, b int) bool { return ks[int(idx[a])*kt.keys.Stride] < ks[int(idx[b])*kt.keys.Stride] })
				return idx
			}
			all, xs, ys := order(0, f.Len()), order(0, 140), order(140, f.Len())
			self := func(loop selfLoop) sweepRun {
				var r sweepRun
				r.cand, r.res = loop(f.Data, dims, ks, kt.keys.Stride, all, eps, epsSq, func(i, j int32) { r.pairs = append(r.pairs, pair{i, j}) })
				return r
			}
			cross := func(loop crossLoop) sweepRun {
				var r sweepRun
				r.cand, r.res = loop(f.Data, f.Data, dims, ks, ks, kt.keys.Stride, xs, ys, eps, epsSq, func(i, j int32) { r.pairs = append(r.pairs, pair{i, j}) })
				return r
			}
			for _, c := range []struct {
				loop           string
				fixed, generic sweepRun
			}{
				{"self", self(selfSweepL2), self(selfSweepL2Any)},
				{"cross", cross(crossSweepL2), cross(crossSweepL2Any)},
			} {
				if c.generic.res == 0 || c.generic.res == c.generic.cand {
					t.Fatalf("d%d %s %s: degenerate fixture, %d hits of %d candidates", dims, kt.name, c.loop, c.generic.res, c.generic.cand)
				}
				if c.fixed.cand != c.generic.cand || c.fixed.res != c.generic.res || !slices.Equal(c.fixed.pairs, c.generic.pairs) {
					t.Errorf("d%d %s %s: fixed loop (cand %d, res %d, %d pairs) differs from any-d loop (cand %d, res %d, %d pairs)",
						dims, kt.name, c.loop, c.fixed.cand, c.fixed.res, len(c.fixed.pairs), c.generic.cand, c.generic.res, len(c.generic.pairs))
				}
			}
		}
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
// threshold th and returns each loop's accept decision by name.
func l2Decisions(a, b []float64, th float64) map[string]bool {
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
				for name, got := range l2Decisions(a, b, tc.th) {
					if got != tc.want {
						t.Errorf("d%d trial %d: %s decides %v at th = %v (canonical sum %v)", d, trial, name, got, tc.th, s)
					}
				}
			}
		}
	}
}
