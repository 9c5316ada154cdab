package vec

import (
	"fmt"
	"math"
	"strings"
)

// Box is an axis-aligned hyper-rectangle [Lo[i], Hi[i]] per dimension. The
// zero Box has no dimensions; use NewEmptyBox or BoundingBox to construct a
// useful one. Boxes are the region vocabulary shared by the tree-based join
// algorithms (ε-kdB tree, k-d tree, R-tree).
type Box struct {
	Lo, Hi []float64
}

// NewEmptyBox returns a d-dimensional box that contains nothing: every lower
// bound is +Inf and every upper bound is -Inf, so the first Extend fixes it.
func NewEmptyBox(d int) Box {
	b := Box{Lo: make([]float64, d), Hi: make([]float64, d)}
	for i := 0; i < d; i++ {
		b.Lo[i] = math.Inf(1)
		b.Hi[i] = math.Inf(-1)
	}
	return b
}

// NewBox returns a box with the given bounds. It panics if the slices differ
// in length or any lower bound exceeds its upper bound, because a malformed
// box silently corrupts every downstream pruning decision.
func NewBox(lo, hi []float64) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("vec: box bounds of different dimension %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("vec: inverted box bound in dimension %d: [%g, %g]", i, lo[i], hi[i]))
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// Empty reports whether the box contains no point (any inverted bound).
func (b Box) Empty() bool {
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return true
		}
	}
	return len(b.Lo) == 0
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	return Box{Lo: Clone(b.Lo), Hi: Clone(b.Hi)}
}

// Extend grows the box in place to contain point p.
func (b Box) Extend(p []float64) {
	for i, v := range p {
		if v < b.Lo[i] {
			b.Lo[i] = v
		}
		if v > b.Hi[i] {
			b.Hi[i] = v
		}
	}
}

// ExtendBox grows the box in place to contain the box o.
func (b Box) ExtendBox(o Box) {
	for i := range b.Lo {
		if o.Lo[i] < b.Lo[i] {
			b.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > b.Hi[i] {
			b.Hi[i] = o.Hi[i]
		}
	}
}

// Contains reports whether point p lies inside the (closed) box.
func (b Box) Contains(p []float64) bool {
	for i, v := range p {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	for i := range b.Lo {
		if o.Lo[i] < b.Lo[i] || o.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// gap returns the per-dimension separation of b and o in dimension i (zero
// if the projections overlap).
func (b Box) gap(o Box, i int) float64 {
	switch {
	case b.Lo[i] > o.Hi[i]:
		return b.Lo[i] - o.Hi[i]
	case o.Lo[i] > b.Hi[i]:
		return o.Lo[i] - b.Hi[i]
	default:
		return 0
	}
}

// MinDist returns the minimum distance under metric m between any point of b
// and any point of o. It is the pruning bound for tree joins: if
// MinDist > ε, no pair spanning the two boxes can qualify.
func (b Box) MinDist(m Metric, o Box) float64 {
	switch m {
	case L2:
		var s float64
		for i := range b.Lo {
			g := b.gap(o, i)
			s += g * g
		}
		return math.Sqrt(s)
	case L1:
		var s float64
		for i := range b.Lo {
			s += b.gap(o, i)
		}
		return s
	default:
		var s float64
		for i := range b.Lo {
			if g := b.gap(o, i); g > s {
				s = g
			}
		}
		return s
	}
}

// MinDistPoint returns the minimum distance under metric m between point p
// and the box.
func (b Box) MinDistPoint(m Metric, p []float64) float64 {
	switch m {
	case L2:
		var s float64
		for i, v := range p {
			g := pointGap(v, b.Lo[i], b.Hi[i])
			s += g * g
		}
		return math.Sqrt(s)
	case L1:
		var s float64
		for i, v := range p {
			s += pointGap(v, b.Lo[i], b.Hi[i])
		}
		return s
	default:
		var s float64
		for i, v := range p {
			if g := pointGap(v, b.Lo[i], b.Hi[i]); g > s {
				s = g
			}
		}
		return s
	}
}

func pointGap(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// WithinDist reports whether MinDist(m, o) ≤ eps without computing a square
// root for L2 (t must be Threshold(m, eps)). Early-exits per dimension.
func (b Box) WithinDist(m Metric, o Box, t float64) bool {
	switch m {
	case L2:
		var s float64
		for i := range b.Lo {
			g := b.gap(o, i)
			s += g * g
			if s > t {
				return false
			}
		}
		return true
	case L1:
		var s float64
		for i := range b.Lo {
			s += b.gap(o, i)
			if s > t {
				return false
			}
		}
		return true
	default:
		for i := range b.Lo {
			if b.gap(o, i) > t {
				return false
			}
		}
		return true
	}
}

// OverlapVolume returns the volume of the intersection of b and o (zero if
// disjoint).
func (b Box) OverlapVolume(o Box) float64 {
	v := 1.0
	for i := range b.Lo {
		lo, hi := b.Lo[i], b.Hi[i]
		if o.Lo[i] > lo {
			lo = o.Lo[i]
		}
		if o.Hi[i] < hi {
			hi = o.Hi[i]
		}
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// PointBox returns the degenerate box covering exactly point p. The returned
// box aliases copies of p, not p itself.
func PointBox(p []float64) Box {
	return Box{Lo: Clone(p), Hi: Clone(p)}
}

// BoundingBox returns the smallest box containing all points produced by
// iterating i over [0, n) and fetching at(i). It panics if n == 0 because an
// empty bounding box has no meaningful dimensionality.
func BoundingBox(n int, at func(int) []float64) Box {
	if n == 0 {
		panic("vec: bounding box of zero points")
	}
	first := at(0)
	b := Box{Lo: Clone(first), Hi: Clone(first)}
	for i := 1; i < n; i++ {
		b.Extend(at(i))
	}
	return b
}

// String renders the box as [lo…hi]×… for debugging.
func (b Box) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range b.Lo {
		if i > 0 {
			sb.WriteString(" × ")
		}
		fmt.Fprintf(&sb, "[%g,%g]", b.Lo[i], b.Hi[i])
	}
	sb.WriteByte('}')
	return sb.String()
}
