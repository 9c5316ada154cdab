package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. It never interpolates, so every reported latency is one
// that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail percentiles the harness will report, in
// rising order, each with the share of samples beyond it as one in oneIn.
var tailPercentiles = []struct {
	pct   float64
	oneIn int
}{{90, 10}, {99, 100}, {99.9, 1000}}

// highestSupported returns the highest of tailPercentiles that has at
// least ten samples beyond it among n samples, or 50 when none has.
func highestSupported(n int) float64 {
	best := 50.0
	for _, t := range tailPercentiles {
		if n >= 10*t.oneIn {
			best = t.pct
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// lowest is the smallest of xs, or 0 for none, like percentile.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects one op kind's latency samples in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

func (l latencies) p(p float64) float64 { return percentile(sortedCopy(l), p) }

// ratio is a/b, or 0 when b is 0: an absent denominator means the layer
// did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
