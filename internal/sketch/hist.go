package sketch

import "math"

// The distance histograms are log₂-spaced: histPerOctave sub-buckets per
// doubling across exponents [histMinExp, histMaxExp), plus a bucket for
// (near-)zero distances and one for overflow. Each bucket spans a factor
// of 2^(1/8) ≈ 1.09 in distance, so even before the in-bucket
// interpolation a query threshold is resolved to within ~9% of its
// position — far inside the factor-level accuracy the estimators promise.
const (
	histPerOctave = 8
	histMinExp    = -60
	histMaxExp    = 60
	histOctaves   = histMaxExp - histMinExp
	histBuckets   = histOctaves * histPerOctave
	histMin       = 1.0 / (1 << -histMinExp) // 2^histMinExp
	histMax       = 1 << histMaxExp          // 2^histMaxExp
)

// histogram accumulates sampled pair distances for one metric.
type histogram struct {
	// zero counts distances below 2^histMinExp (including exact zeros):
	// they qualify at any eps the library accepts.
	zero int64
	// over counts distances at or beyond 2^histMaxExp.
	over    int64
	buckets [histBuckets]int64
}

// histPos is a distance's fractional bucket position: bucket b spans
// positions [b, b+1). It defines the bucket geometry; add reads it through
// histBounds, fracAtMost directly.
func histPos(v float64) float64 {
	return (math.Log2(v) - histMinExp) * histPerOctave
}

// histBounds[o] holds, as float64 bit patterns, the eight distances in
// octave o (the floats in [2^(o+histMinExp), 2^(o+histMinExp+1))) where
// int(histPos) steps up: entry k is the smallest v with int(histPos(v)) ≥
// o·histPerOctave + k + 1, or the next octave's first float when no v in
// octave o gets there. The eighth entry is not the octave's end: Log2
// rounds the last floats below a power of two up to it, so they belong to
// the next octave's first bucket. Each entry is found by bisecting histPos
// itself over bit patterns (positive floats order like their bits), so add
// files every distance exactly where histPos would.
var histBounds = func() (t [histOctaves][histPerOctave]uint64) {
	for o := range t {
		lo := math.Float64bits(math.Ldexp(1, o+histMinExp))
		end := math.Float64bits(math.Ldexp(1, o+histMinExp+1))
		for k := range t[o] {
			want := o*histPerOctave + k + 1
			reaches := func(x uint64) bool { return int(histPos(math.Float64frombits(x))) >= want }
			// The step sits within 66 ulps of 2^(e+(k+1)/8) on amd64; bisect
			// a 512-ulp window around that when it brackets the step (≈ 0.5 ms
			// for the whole table), else the rest of the octave.
			g := math.Float64bits(math.Ldexp(math.Exp2(float64(k+1)/histPerOctave), o+histMinExp))
			hi := end
			if w := uint64(1 << 8); g-w > lo && g+w < end && !reaches(g-w) && reaches(g+w) {
				lo, hi = g-w+1, g+w
			}
			for lo < hi {
				if mid := lo + (hi-lo)/2; reaches(mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			t[o][k] = lo
		}
	}
	return t
}()

// add records one distance.
func (h *histogram) add(v float64) {
	switch {
	case !(v >= 0): // NaN guard; distances are never negative
		return
	case v < histMin:
		h.zero++
	case v >= histMax:
		h.over++
	default:
		h.buckets[histIndex(v)]++
	}
}

// histIndex returns the bucket of a distance in [histMin, histMax):
// int(histPos(v)) clamped to the last bucket, computed without a
// logarithm. The octave is v's exponent field, and the step inside it is
// the count of the octave's histBounds at or below v — eight subtractions
// on the bit patterns, no branch.
func histIndex(v float64) int {
	x := math.Float64bits(v)
	o := int(x>>52) - 1023 - histMinExp
	step := uint64(histPerOctave)
	for _, b := range &histBounds[o] {
		step -= (x - b) >> 63 // 1 when x < b: both are below 2^63
	}
	return min(o*histPerOctave+int(step), histBuckets-1)
}

// fracAtMost returns the estimated fraction of the total recorded
// distances that are ≤ eps, interpolating linearly inside the bucket
// containing eps. total is the caller's record count (shared across
// metrics by the sketch).
func (h *histogram) fracAtMost(eps float64, total int64) float64 {
	if total <= 0 || !(eps >= 0) {
		return 0
	}
	count := float64(h.zero)
	if eps >= histMin {
		pos := histPos(eps)
		if pos >= histBuckets {
			count = float64(total) // everything, overflow included
		} else {
			i := int(pos)
			for b := 0; b < i; b++ {
				count += float64(h.buckets[b])
			}
			count += (pos - float64(i)) * float64(h.buckets[i])
		}
	}
	if f := count / float64(total); f < 1 {
		return f
	}
	return 1
}
