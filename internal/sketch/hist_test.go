package sketch

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/vec"
)

// log2Add is histogram.add as it was written with a logarithm per
// distance: the reference the table-driven add must equal.
func log2Add(h *histogram, v float64) {
	switch {
	case !(v >= 0):
		return
	case v < math.Ldexp(1, histMinExp):
		h.zero++
	case v >= math.Ldexp(1, histMaxExp):
		h.over++
	default:
		h.buckets[log2Index(v)]++
	}
}

// log2Index is log2Add's bucket for a distance in [2^histMinExp,
// 2^histMaxExp).
func log2Index(v float64) int {
	i := int((math.Log2(v) - histMinExp) * histPerOctave)
	if i < 0 {
		i = 0
	} else if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

func checkHistIndex(t testing.TB, v float64) {
	t.Helper()
	if v < histMin || v >= histMax {
		return
	}
	if got, want := histIndex(v), log2Index(v); got != want {
		t.Fatalf("v = %v (%#x): histIndex %d, log2 formula %d", v, math.Float64bits(v), got, want)
	}
}

// TestHistIndexMatchesLog2: the table-driven bucket equals the logarithm
// formula one ulp either side of every octave boundary and every table
// entry of all 120 octaves, and on 10⁶ random distances spread over the
// whole range.
func TestHistIndexMatchesLog2(t *testing.T) {
	for o := range histOctaves {
		at := []uint64{math.Float64bits(math.Ldexp(1, o+histMinExp))}
		for _, b := range histBounds[o] {
			at = append(at, b)
		}
		for _, x := range at {
			for _, y := range []uint64{x - 1, x, x + 1} {
				checkHistIndex(t, math.Float64frombits(y))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 1_000_000 {
		checkHistIndex(t, math.Ldexp(1+rng.Float64(), rng.Intn(histOctaves)+histMinExp))
	}
	// add's zero and overflow edges, through whole histograms.
	var got, want histogram
	for _, v := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1),
		math.Nextafter(histMin, 0), histMin, math.Nextafter(histMax, 0), histMax, 1} {
		got.add(v)
		log2Add(&want, v)
	}
	if got != want {
		t.Fatalf("edges: zero/over/buckets differ: got zero=%d over=%d, want zero=%d over=%d",
			got.zero, got.over, want.zero, want.over)
	}
}

// FuzzHistIndex holds the table-driven bucket to the logarithm formula
// at any float bit pattern in the histogram's range.
func FuzzHistIndex(f *testing.F) {
	for _, v := range []float64{histMin, 1, 0.5, math.Nextafter(histMax, 0), math.Nextafter(0x1p-59, 0)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, x uint64) {
		checkHistIndex(t, math.Float64frombits(x))
	})
}

// referenceFromDataset builds a sketch the way FromDataset did with one
// distance function, one Log2 and one lock per sampled pair: the same
// permutation, rng draws and reservoir updates, branchy |Δ|.
func referenceFromDataset(ds *dataset.Dataset, cfg Config) *Sketch {
	s := New(ds.Dims(), cfg)
	for _, i := range rand.New(rand.NewSource(^s.cfg.Seed)).Perm(ds.Len()) {
		p := ds.Point(i)
		s.mu.Lock()
		k := s.res.Len()
		for range min(s.cfg.PairsPerPoint, k) {
			q := s.res.Point(s.rng.Intn(k))
			var l1, linf float64
			for d := range p {
				a := p[d] - q[d]
				if a < 0 {
					a = -a
				}
				l1 += a
				if a > linf {
					linf = a
				}
			}
			log2Add(&s.hist[vec.L2], math.Sqrt(vec.DistSqL2(p, q)))
			log2Add(&s.hist[vec.L1], l1)
			log2Add(&s.hist[vec.Linf], linf)
			s.pairs++
		}
		if k < s.cfg.Reservoir {
			s.res.Append(p)
		} else if j := s.rng.Int63n(s.n + 1); j < int64(s.cfg.Reservoir) {
			copy(s.res.Point(int(j)), p)
		}
		s.n++
		s.mu.Unlock()
	}
	return s
}

// TestFromDatasetBitIdentical: the fused, log-free build leaves the same
// reservoir, the same three histograms and the same pair count as the
// per-pair reference, at low, middle and high dimensionality.
func TestFromDatasetBitIdentical(t *testing.T) {
	for _, dims := range []int{3, 8, 64} {
		ds := randomData(3000, dims, int64(dims))
		got, want := FromDataset(ds, Config{}), referenceFromDataset(ds, Config{})
		if !got.res.Equal(want.res) {
			t.Errorf("d=%d: reservoirs differ", dims)
		}
		if got.n != want.n || got.pairs != want.pairs {
			t.Errorf("d=%d: n/pairs %d/%d, reference %d/%d", dims, got.n, got.pairs, want.n, want.pairs)
		}
		for m := range got.hist {
			if got.hist[m] != want.hist[m] {
				t.Errorf("d=%d: %v histograms differ", dims, vec.Metric(m))
			}
		}
	}
}

// BenchmarkFromDataset times the bulk sketch build at the two shapes the
// repository benchmark uploads: d = 8 with n = 12 000 and d = 64 with
// n = 3 600. ns/point is the per-arrival Observe cost.
func BenchmarkFromDataset(b *testing.B) {
	for _, c := range []struct{ n, dims int }{{12000, 8}, {3600, 64}} {
		ds := randomData(c.n, c.dims, 1)
		b.Run("d="+strconv.Itoa(c.dims), func(b *testing.B) {
			for range b.N {
				FromDataset(ds, Config{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/point")
		})
	}
}
