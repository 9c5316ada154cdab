// Package dft implements the discrete Fourier transform feature extraction
// used by the time-sequence-matching application that motivates
// high-dimensional similarity joins: each length-n sequence maps to its
// first k DFT coefficients (2k real dimensions), and similar sequences are
// found by an ε-join in feature space followed by a refinement pass in the
// time domain.
//
// The transform is normalized by 1/√n, which makes it unitary: Euclidean
// distance between two sequences equals the distance between their full
// coefficient vectors, so truncating to the first k coefficients can only
// shrink distances. The feature-space join therefore admits false positives
// but never false dismissals — the contract the filter-and-refine
// experiment (F8) measures.
package dft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"simjoin/internal/dataset"
)

// Naive computes the normalized DFT of x directly in O(n²). It is the
// correctness oracle for FFT and the fallback for non-power-of-two lengths.
func Naive(x []float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	norm := 1 / math.Sqrt(float64(n))
	for f := 0; f < n; f++ {
		var sum complex128
		for t, v := range x {
			angle := -2 * math.Pi * float64(f) * float64(t) / float64(n)
			sum += complex(v, 0) * cmplx.Exp(complex(0, angle))
		}
		out[f] = sum * complex(norm, 0)
	}
	return out
}

// FFT computes the normalized DFT of x in O(n log n) with the iterative
// radix-2 Cooley-Tukey algorithm. It panics unless len(x) is a power of two
// (callers choose Transform for arbitrary lengths).
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dft: FFT length %d is not a power of two", n))
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i, v := range x {
		out[bits.Reverse64(uint64(i))>>shift] = v
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	norm := complex(1/math.Sqrt(float64(n)), 0)
	for i := range out {
		out[i] *= norm
	}
	return out
}

// Transform computes the normalized DFT of a real sequence of any length,
// using FFT when the length is a power of two and Naive otherwise.
func Transform(x []float64) []complex128 {
	n := len(x)
	if n > 0 && n&(n-1) == 0 {
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		return FFT(c)
	}
	return Naive(x)
}

// FeatureDims returns the dimensionality of the feature vector for k
// coefficients: 2k (real and imaginary parts interleaved).
func FeatureDims(k int) int { return 2 * k }

// Features maps a sequence to its first k normalized DFT coefficients as a
// 2k-dimensional real vector [Re X₀, Im X₀, Re X₁, Im X₁, …]. The DC
// coefficient X₀ is included so that the feature distance lower-bounds the
// raw time-domain distance (drop it only if sequences are mean-normalized
// first). It panics if k exceeds the sequence length — asking for more
// coefficients than exist is always a caller bug.
func Features(series []float64, k int) []float64 {
	if k < 1 || k > len(series) {
		panic(fmt.Sprintf("dft: k=%d out of range for series of length %d", k, len(series)))
	}
	coef := Transform(series)
	out := make([]float64, 2*k)
	for f := 0; f < k; f++ {
		out[2*f] = real(coef[f])
		out[2*f+1] = imag(coef[f])
	}
	return out
}

// FeatureDataset maps every sequence to its k-coefficient feature vector,
// returning a dataset ready for an ε-join. All sequences must share one
// length.
func FeatureDataset(series [][]float64, k int) *dataset.Dataset {
	if len(series) == 0 {
		panic("dft: FeatureDataset of no sequences")
	}
	n := len(series[0])
	ds := dataset.New(FeatureDims(k), len(series))
	for i, s := range series {
		if len(s) != n {
			panic(fmt.Sprintf("dft: sequence %d has length %d, want %d", i, len(s), n))
		}
		ds.Append(Features(s, k))
	}
	return ds
}

// SeqDist returns the Euclidean distance between two equal-length
// sequences, the refinement-step metric of the filter-and-refine pipeline.
func SeqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
