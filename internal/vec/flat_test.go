package vec

import (
	"math"
	"math/rand"
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

func TestSelfSweepFlatMatchesReference(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 4, 5, 8, 16, 33} {
		for _, m := range []Metric{L2, L1, Linf} {
			f := randFlat(t, 120, dims, int64(dims)*7+int64(m))
			for _, eps := range []float64{0.1, 0.5, 1.2} {
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
	for _, dims := range []int{1, 3, 8, 17} {
		for _, m := range []Metric{L2, L1, Linf} {
			fx := randFlat(t, 90, dims, int64(dims)*13+int64(m))
			fy := randFlat(t, 70, dims, int64(dims)*29+int64(m))
			eps := 0.6
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
