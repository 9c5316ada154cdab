package vec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randBox(rng *rand.Rand, d int) Box {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return NewBox(lo, hi)
}

// randPointIn returns a uniform point inside b.
func randPointIn(rng *rand.Rand, b Box) []float64 {
	p := make([]float64, b.Dims())
	for i := range p {
		p[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	return p
}

func TestNewBoxPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dimension mismatch", func() { NewBox([]float64{0}, []float64{1, 2}) })
	mustPanic("inverted bound", func() { NewBox([]float64{2}, []float64{1}) })
	mustPanic("empty bounding box", func() { BoundingBox(0, nil) })
}

func TestEmptyBoxLifecycle(t *testing.T) {
	b := NewEmptyBox(3)
	if !b.Empty() {
		t.Fatal("fresh empty box is not Empty")
	}
	b.Extend([]float64{1, 2, 3})
	if b.Empty() {
		t.Fatal("box containing a point is Empty")
	}
	if !b.Contains([]float64{1, 2, 3}) {
		t.Fatal("box does not contain its only point")
	}
	b.Extend([]float64{-1, 5, 0})
	for _, p := range [][]float64{{1, 2, 3}, {-1, 5, 0}, {0, 3, 1.5}} {
		if !b.Contains(p) {
			t.Errorf("box %v does not contain %v", b, p)
		}
	}
	if b.Contains([]float64{2, 2, 2}) {
		t.Errorf("box %v contains out-of-range point", b)
	}
}

func TestBoundingBoxContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = randVec(rng, 6)
	}
	b := BoundingBox(len(pts), func(i int) []float64 { return pts[i] })
	for i, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("bounding box misses point %d", i)
		}
	}
	// Bounds must be tight: each face touched by some point.
	for dim := 0; dim < 6; dim++ {
		loTouched, hiTouched := false, false
		for _, p := range pts {
			if p[dim] == b.Lo[dim] {
				loTouched = true
			}
			if p[dim] == b.Hi[dim] {
				hiTouched = true
			}
		}
		if !loTouched || !hiTouched {
			t.Fatalf("dimension %d bound not tight", dim)
		}
	}
}

// TestMinDistLowerBound: MinDist(a.box, b.box) ≤ Dist(p, q) for any points
// p ∈ a, q ∈ b. This is the property all tree pruning depends on.
func TestMinDistLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(6)
		a, b := randBox(rng, d), randBox(rng, d)
		p, q := randPointIn(rng, a), randPointIn(rng, b)
		for _, m := range []Metric{L2, L1, Linf} {
			md := a.MinDist(m, b)
			pd := Dist(m, p, q)
			if md > pd+1e-9 {
				t.Fatalf("%v: MinDist %g exceeds point distance %g", m, md, pd)
			}
		}
	}
}

func TestMinDistPointLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(6)
		b := randBox(rng, d)
		p := randVec(rng, d)
		q := randPointIn(rng, b)
		for _, m := range []Metric{L2, L1, Linf} {
			md := b.MinDistPoint(m, p)
			pd := Dist(m, p, q)
			if md > pd+1e-9 {
				t.Fatalf("%v: MinDistPoint %g exceeds point distance %g", m, md, pd)
			}
		}
		if b.Contains(p) && b.MinDistPoint(L2, p) != 0 {
			t.Fatal("MinDistPoint of contained point is nonzero")
		}
	}
}

func TestWithinDistAgreesWithMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a, b := randBox(r, d), randBox(r, d)
		eps := r.Float64() * 2
		for _, m := range []Metric{L2, L1, Linf} {
			want := a.MinDist(m, b) <= eps
			got := a.WithinDist(m, b, Threshold(m, eps))
			// Allow boundary-only disagreement from the sqrt comparison.
			if got != want && math.Abs(a.MinDist(m, b)-eps) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestKnownMinDist(t *testing.T) {
	a := NewBox([]float64{0, 0}, []float64{1, 1})
	b := NewBox([]float64{4, 5}, []float64{6, 7})
	if got := a.MinDist(L2, b); !almostEqual(got, 5) {
		t.Errorf("L2 MinDist = %g, want 5", got)
	}
	if got := a.MinDist(L1, b); !almostEqual(got, 7) {
		t.Errorf("L1 MinDist = %g, want 7", got)
	}
	if got := a.MinDist(Linf, b); !almostEqual(got, 4) {
		t.Errorf("Linf MinDist = %g, want 4", got)
	}
}

func TestOverlapVolume(t *testing.T) {
	a := NewBox([]float64{0, 0}, []float64{2, 3})
	b := NewBox([]float64{1, 1}, []float64{4, 4})
	if got := a.OverlapVolume(b); !almostEqual(got, 2) {
		t.Errorf("OverlapVolume = %g, want 2", got)
	}
	far := NewBox([]float64{10, 10}, []float64{11, 11})
	if got := a.OverlapVolume(far); got != 0 {
		t.Errorf("disjoint OverlapVolume = %g, want 0", got)
	}
}

func TestPointBox(t *testing.T) {
	p := []float64{1, 2, 3}
	pb := PointBox(p)
	if !pb.Contains(p) || !Equal(pb.Lo, pb.Hi) {
		t.Errorf("PointBox malformed: %v", pb)
	}
	p[0] = 99
	if pb.Lo[0] == 99 {
		t.Error("PointBox aliases input")
	}
}

func TestBoxString(t *testing.T) {
	b := NewBox([]float64{0, 1}, []float64{2, 3})
	s := b.String()
	if !strings.Contains(s, "[0,2]") || !strings.Contains(s, "[1,3]") {
		t.Errorf("String() = %q, missing bounds", s)
	}
}
