package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{L2: "L2", L1: "L1", Linf: "Linf", Metric(42): "Metric(42)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Metric(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestParseMetric(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Metric
	}{
		{"L2", L2}, {"l2", L2}, {"euclidean", L2},
		{"L1", L1}, {"manhattan", L1},
		{"Linf", Linf}, {"max", Linf}, {"chebyshev", Linf},
	} {
		got, err := ParseMetric(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseMetric("cosine"); err == nil {
		t.Error("ParseMetric(cosine) succeeded, want error")
	}
}

func TestMetricValid(t *testing.T) {
	for _, m := range []Metric{L2, L1, Linf} {
		if !m.Valid() {
			t.Errorf("%v.Valid() = false", m)
		}
	}
	if Metric(99).Valid() {
		t.Error("Metric(99).Valid() = true")
	}
}

func TestDistKnownValues(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{3, 4, 0}
	if got := Dist(L2, a, b); !almostEqual(got, 5) {
		t.Errorf("L2 dist = %g, want 5", got)
	}
	if got := Dist(L1, a, b); !almostEqual(got, 7) {
		t.Errorf("L1 dist = %g, want 7", got)
	}
	if got := Dist(Linf, a, b); !almostEqual(got, 4) {
		t.Errorf("Linf dist = %g, want 4", got)
	}
}

func TestDistZeroAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []Metric{L2, L1, Linf} {
		for trial := 0; trial < 50; trial++ {
			d := 1 + rng.Intn(16)
			a := randVec(rng, d)
			b := randVec(rng, d)
			if got := Dist(m, a, a); got != 0 {
				t.Fatalf("%v: Dist(a,a) = %g, want 0", m, got)
			}
			if ab, ba := Dist(m, a, b), Dist(m, b, a); !almostEqual(ab, ba) {
				t.Fatalf("%v: asymmetric distance %g vs %g", m, ab, ba)
			}
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []Metric{L2, L1, Linf} {
		for trial := 0; trial < 200; trial++ {
			d := 1 + rng.Intn(10)
			a, b, c := randVec(rng, d), randVec(rng, d), randVec(rng, d)
			ab, bc, ac := Dist(m, a, b), Dist(m, b, c), Dist(m, a, c)
			if ac > ab+bc+1e-9 {
				t.Fatalf("%v: triangle violated: d(a,c)=%g > d(a,b)+d(b,c)=%g", m, ac, ab+bc)
			}
		}
	}
}

func TestMetricOrdering(t *testing.T) {
	// For any pair: Linf ≤ L2 ≤ L1.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(12)
		a, b := randVec(rng, d), randVec(rng, d)
		linf, l2, l1 := Dist(Linf, a, b), Dist(L2, a, b), Dist(L1, a, b)
		if linf > l2+1e-9 || l2 > l1+1e-9 {
			t.Fatalf("metric ordering violated: Linf=%g L2=%g L1=%g", linf, l2, l1)
		}
	}
}

// TestWithinAgreesWithDist is the central property: the early-exit threshold
// kernels must make exactly the same accept/reject decision as the full
// distance computation, for all metrics. d reaches past 64 so every tail of
// the L2 body (eight-blocks, the four-block, the scalar remainder) runs, and
// eps is drawn around the pair's own distance so accepts and rejects both
// occur at every d.
func TestWithinAgreesWithDist(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []Metric{L2, L1, Linf} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			d := 1 + r.Intn(70)
			a, b := randVec(r, d), randVec(r, d)
			dist := Dist(m, a, b)
			eps := dist * (0.5 + r.Float64())
			want := dist <= eps
			got := Within(m, a, b, Threshold(m, eps))
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestWithinBoundaryExact(t *testing.T) {
	// ε tests are closed (≤): a pair at exactly ε is in, and the next float
	// below ε puts it out. The 3-4-5 pair keeps every sum exactly
	// representable; its second coordinate sits in the last dimension so
	// the boundary decision falls in each tail of the L2 body in turn.
	for _, d := range []int{2, 7, 8, 9, 12, 16, 17, 64} {
		a := make([]float64, d)
		b := make([]float64, d)
		b[0], b[d-1] = 3, 4
		for _, tc := range []struct {
			m    Metric
			dist float64
		}{{L2, 5}, {L1, 7}, {Linf, 4}} {
			if !Within(tc.m, a, b, Threshold(tc.m, tc.dist)) {
				t.Errorf("d%d %v: boundary pair rejected", d, tc.m)
			}
			if Within(tc.m, a, b, Threshold(tc.m, math.Nextafter(tc.dist, 0))) {
				t.Errorf("d%d %v: pair accepted at eps just below its distance", d, tc.m)
			}
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := []float64{1, 2, 3}
	if !Equal(a, a) {
		t.Error("Equal(a,a) = false")
	}
	if Equal(a, []float64{1, 2}) {
		t.Error("Equal over different lengths = true")
	}
	if Equal(a, []float64{1, 2, 4}) {
		t.Error("Equal over different values = true")
	}
	c := Clone(a)
	if !Equal(a, c) {
		t.Error("Clone differs from original")
	}
	c[0] = 99
	if a[0] == 99 {
		t.Error("Clone aliases original")
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
