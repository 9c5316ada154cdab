// Package vec provides the numeric kernel for the similarity-join library:
// Minkowski metrics over float64 vectors, threshold ("within ε") tests with
// early exit, and axis-aligned boxes with minimum/maximum distance bounds.
//
// Everything in this package is allocation-free on the hot path. Vectors are
// plain []float64 slices; callers guarantee equal lengths (enforced only in
// debug-style helpers, not in the per-pair kernels, which are called O(N²)
// times in the worst case).
package vec

import (
	"fmt"
	"math"
)

// Metric identifies a Minkowski distance function.
type Metric int

const (
	// L2 is the Euclidean metric. It is the default everywhere.
	L2 Metric = iota
	// L1 is the Manhattan (city-block) metric.
	L1
	// Linf is the maximum (Chebyshev) metric.
	Linf
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case L1:
		return "L1"
	case Linf:
		return "Linf"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// ParseMetric converts a name such as "L2", "l1" or "linf" to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "L2", "l2", "euclidean":
		return L2, nil
	case "L1", "l1", "manhattan":
		return L1, nil
	case "Linf", "linf", "LINF", "chebyshev", "max":
		return Linf, nil
	}
	return L2, fmt.Errorf("vec: unknown metric %q", s)
}

// Valid reports whether m is one of the defined metrics.
func (m Metric) Valid() bool { return m == L2 || m == L1 || m == Linf }

// Dist returns the distance between a and b under metric m.
func Dist(m Metric, a, b []float64) float64 {
	switch m {
	case L2:
		return math.Sqrt(DistSqL2(a, b))
	case L1:
		return DistL1(a, b)
	default:
		return DistLinf(a, b)
	}
}

// DistSqL2 returns the squared Euclidean distance between a and b. The
// body is unrolled four-wide with an up-front reslice so the compiler can
// eliminate bounds checks — this function and WithinSqL2 together are the
// majority of cycles in every L2 join.
func DistSqL2(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DistL1 returns the Manhattan distance between a and b.
func DistL1(a, b []float64) float64 {
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

// DistLinf returns the Chebyshev distance between a and b.
func DistLinf(a, b []float64) float64 {
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

// Threshold precomputes the comparison constant used by Within for metric m
// and radius eps: eps² for L2 (so the square root is never taken), eps
// itself otherwise.
func Threshold(m Metric, eps float64) float64 {
	if m == L2 {
		return eps * eps
	}
	return eps
}

// Within reports whether dist(a, b) ≤ eps under metric m, where t must be
// Threshold(m, eps). It abandons the accumulation as soon as the partial sum
// proves the pair is out of range; for high-dimensional rejection-heavy
// workloads this is the single most important constant factor in the
// library.
func Within(m Metric, a, b []float64, t float64) bool {
	switch m {
	case L2:
		return WithinSqL2(a, b, t)
	case L1:
		return WithinL1(a, b, t)
	default:
		return WithinLinf(a, b, t)
	}
}

// WithinSqL2 reports whether the squared L2 distance of a and b is ≤ epsSq,
// abandoning the accumulation once the running sum exceeds epsSq: four-wide
// unrolled accumulation with one exit test per two blocks. Check spacing is
// a pure performance knob — the sum only grows (squares are non-negative and
// float rounding is monotone), so any partial sum past epsSq forces the same
// reject the final sum would — and testing every other block keeps the
// dependency chain off the branch: eight dimensions of accumulation are in
// flight before a compare needs the running total. The inline L2 loops in
// flat_kernels.go and flat_kernels_gen.go repeat this body term for term
// (TestL2AccumulationOrder).
func WithinSqL2(a, b []float64, epsSq float64) bool {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		d0 = a[i+4] - b[i+4]
		d1 = a[i+5] - b[i+5]
		d2 = a[i+6] - b[i+6]
		d3 = a[i+7] - b[i+7]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		if s > epsSq {
			return false
		}
	}
	if i+4 <= len(a) {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		i += 4
		if s > epsSq {
			return false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s <= epsSq
}

// WithinL1 reports whether the L1 distance of a and b is ≤ eps, with early
// exit.
func WithinL1(a, b []float64, eps float64) bool {
	b = b[:len(a)]
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

// WithinLinf reports whether the L∞ distance of a and b is ≤ eps. Every
// coordinate is an exit opportunity.
func WithinLinf(a, b []float64, eps float64) bool {
	b = b[:len(a)]
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

// Equal reports whether a and b have the same length and identical
// coordinates.
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if av != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}
