package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The L1 and L∞ bodies as they were written with a sign branch for |Δ|.
// DistL1, DistLinf, WithinL1 and WithinLinf take math.Abs instead; these
// are the reference they must equal.

func branchyDistL1(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

func branchyDistLinf(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		if d > s {
			s = d
		}
	}
	return s
}

func branchyWithinL1(a, b []float64, eps float64) bool {
	var s float64
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		s += d
		if s > eps {
			return false
		}
	}
	return true
}

func branchyWithinLinf(a, b []float64, eps float64) bool {
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

// specialPair returns a d-dimensional pair whose coordinates are drawn
// from ±0, equal values, NaN, ±Inf and ordinary numbers, so every case
// where a sign-bit clear and a sign branch could part ways comes up.
func specialPair(rng *rand.Rand, d int) (a, b []float64) {
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN()}
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return palette[rng.Intn(len(palette))]
	}
	a, b = make([]float64, d), make([]float64, d)
	for i := range a {
		a[i] = pick()
		if rng.Intn(4) == 0 {
			b[i] = a[i]
		} else {
			b[i] = pick()
		}
	}
	return a, b
}

// testPairs returns 20 random and 20 special pairs at every d in 1…70,
// so every tail of the four-wide blocks runs.
func testPairs(seed int64) [][2][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var out [][2][]float64
	for d := 1; d <= 70; d++ {
		for k := 0; k < 20; k++ {
			out = append(out, [2][]float64{randVec(rng, d), randVec(rng, d)})
			a, b := specialPair(rng, d)
			out = append(out, [2][]float64{a, b})
		}
	}
	return out
}

// sameFloat is bit equality, except that any two NaNs match: a NaN's sign
// and payload carry no distance (math.Abs clears the sign the branch left,
// and which NaN operand a sum passes on is the compiler's choice).
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// TestDistAllMatchesSingle: DistAll's three sums are the single-metric
// functions' bit for bit.
func TestDistAllMatchesSingle(t *testing.T) {
	for _, p := range testPairs(1) {
		a, b := p[0], p[1]
		sq, l1, linf := DistAll(a, b)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"sq", sq, DistSqL2(a, b)},
			{"l1", l1, DistL1(a, b)},
			{"linf", linf, DistLinf(a, b)},
		} {
			if !sameFloat(c.got, c.want) {
				t.Fatalf("d=%d %s: DistAll %v (%#x), single %v (%#x)\na=%v\nb=%v", len(a), c.name,
					c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want), a, b)
			}
		}
	}
}

// TestAbsPredicatesMatchBranchy: the branch-free L1 and L∞ distances and
// accept tests equal the branchy originals on random pairs, at ε equal to
// the pair's distance and one ulp either side of it, and on ±0, NaN and
// ±Inf coordinates.
func TestAbsPredicatesMatchBranchy(t *testing.T) {
	for _, p := range testPairs(2) {
		a, b := p[0], p[1]
		l1, linf := DistL1(a, b), DistLinf(a, b)
		if want := branchyDistL1(a, b); !sameFloat(l1, want) {
			t.Fatalf("DistL1 = %v, branchy %v\na=%v\nb=%v", l1, want, a, b)
		}
		if want := branchyDistLinf(a, b); !sameFloat(linf, want) {
			t.Fatalf("DistLinf = %v, branchy %v\na=%v\nb=%v", linf, want, a, b)
		}
		for _, eps := range []float64{0, l1, math.Nextafter(l1, 0), math.Nextafter(l1, math.Inf(1)),
			linf, math.Nextafter(linf, 0), math.Nextafter(linf, math.Inf(1)), l1 / 2, math.Inf(1), math.NaN()} {
			if got, want := WithinL1(a, b, eps), branchyWithinL1(a, b, eps); got != want {
				t.Fatalf("WithinL1(eps=%v) = %v, branchy %v\na=%v\nb=%v", eps, got, want, a, b)
			}
			if got, want := WithinLinf(a, b, eps), branchyWithinLinf(a, b, eps); got != want {
				t.Fatalf("WithinLinf(eps=%v) = %v, branchy %v\na=%v\nb=%v", eps, got, want, a, b)
			}
		}
	}
}
