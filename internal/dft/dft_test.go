package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 10
	}
	return s
}

func complexAlmostEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randSeries(rng, n)
		naive := Naive(x)
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		fast := FFT(c)
		if !complexAlmostEqual(naive, fast, 1e-9*float64(n)) {
			t.Errorf("n=%d: FFT differs from naive DFT", n)
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT length %d did not panic", n)
				}
			}()
			FFT(make([]complex128, n))
		}()
	}
}

// TestParseval: the normalized transform is unitary — energy is preserved.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{7, 16, 33, 128} { // both FFT and naive paths
		x := randSeries(rng, n)
		var timeEnergy float64
		for _, v := range x {
			timeEnergy += v * v
		}
		var freqEnergy float64
		for _, c := range Transform(x) {
			freqEnergy += real(c)*real(c) + imag(c)*imag(c)
		}
		if math.Abs(timeEnergy-freqEnergy) > 1e-6*(1+timeEnergy) {
			t.Errorf("n=%d: Parseval violated: time %g vs freq %g", n, timeEnergy, freqEnergy)
		}
	}
}

// TestLowerBounding is the GEMINI guarantee: for any two sequences, the
// Euclidean distance between their k-coefficient feature vectors never
// exceeds the raw sequence distance, for every k. This is what makes the
// feature-space ε-join free of false dismissals.
func TestLowerBounding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(60)
		a, b := randSeries(r, n), randSeries(r, n)
		full := SeqDist(a, b)
		for k := 1; k <= n; k += 1 + n/4 {
			fd := SeqDist(Features(a, k), Features(b, k))
			if fd > full+1e-9 {
				return false
			}
		}
		// And with all coefficients the distance is exactly preserved.
		fd := SeqDist(Features(a, n), Features(b, n))
		return math.Abs(fd-full) < 1e-7*(1+full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestFeatureDistanceMonotoneInK: adding coefficients can only grow the
// feature distance.
func TestFeatureDistanceMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randSeries(rng, 64), randSeries(rng, 64)
	prev := 0.0
	for k := 1; k <= 64; k++ {
		d := SeqDist(Features(a, k), Features(b, k))
		if d < prev-1e-12 {
			t.Fatalf("k=%d: feature distance %g dropped below %g", k, d, prev)
		}
		prev = d
	}
}

func TestDFTKnownValues(t *testing.T) {
	// Constant series: all energy in the DC coefficient.
	x := []float64{3, 3, 3, 3}
	c := Transform(x)
	if math.Abs(real(c[0])-6) > 1e-12 { // 4*3/sqrt(4) = 6
		t.Errorf("DC coefficient = %v, want 6", c[0])
	}
	for f := 1; f < 4; f++ {
		if cmplx.Abs(c[f]) > 1e-12 {
			t.Errorf("coefficient %d = %v, want 0", f, c[f])
		}
	}
	// Pure cosine at frequency 1: energy splits between bins 1 and n-1.
	n := 8
	y := make([]float64, n)
	for t2 := range y {
		y[t2] = math.Cos(2 * math.Pi * float64(t2) / float64(n))
	}
	cy := Transform(y)
	if cmplx.Abs(cy[1]) < 1 || cmplx.Abs(cy[n-1]) < 1 {
		t.Errorf("cosine energy not in bins 1 and %d: %v", n-1, cy)
	}
	if cmplx.Abs(cy[0]) > 1e-9 || cmplx.Abs(cy[2]) > 1e-9 {
		t.Errorf("cosine leaked into wrong bins: %v", cy)
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randSeries(rng, 32), randSeries(rng, 32)
	sum := make([]float64, 32)
	for i := range sum {
		sum[i] = 2*a[i] - 3*b[i]
	}
	ca, cb, cs := Transform(a), Transform(b), Transform(sum)
	for f := range cs {
		want := complex(2, 0)*ca[f] - complex(3, 0)*cb[f]
		if cmplx.Abs(cs[f]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", f)
		}
	}
}

func TestFeaturesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"k too large":  func() { Features([]float64{1, 2}, 3) },
		"k zero":       func() { Features([]float64{1, 2}, 0) },
		"no sequences": func() { FeatureDataset(nil, 1) },
		"ragged":       func() { FeatureDataset([][]float64{{1, 2}, {1}}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFeatureDataset(t *testing.T) {
	series := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	ds := FeatureDataset(series, 2)
	if ds.Len() != 2 || ds.Dims() != FeatureDims(2) {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Dims())
	}
	want := Features(series[1], 2)
	got := ds.Point(1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feature mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSeqDist(t *testing.T) {
	if d := SeqDist([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("SeqDist = %g, want 5", d)
	}
}
