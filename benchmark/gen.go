package main

import (
	"math"
	"math/rand"
)

// The harness owns its inputs: product changes (internal/synth included)
// cannot move them. Shape: 10 Gaussian blobs, sigma 0.05, in the unit
// cube, clamped — what internal/synth calls "clustered".
const (
	blobCount = 10
	blobSigma = 0.05
	// Centres are drawn in [0.2, 0.8]^d, 4 sigma from every face, so
	// clamping touches almost no point, and at least blobMinSep apart, so
	// blobs do not merge. Both keep pairs-per-point — and so the work per
	// op — steady from seed to seed.
	blobMinSep = 0.5
)

type blobs struct {
	dims    int
	centres [][]float64
}

func newBlobs(r *rand.Rand, dims int) blobs {
	b := blobs{dims: dims}
	for len(b.centres) < blobCount {
		c := make([]float64, dims)
		for d := range c {
			c[d] = 0.2 + 0.6*r.Float64()
		}
		far := true
		for _, o := range b.centres {
			if sqDist(c, o) < blobMinSep*blobMinSep {
				far = false
				break
			}
		}
		if far {
			b.centres = append(b.centres, c)
		}
	}
	return b
}

// points draws n points, blob i%10 for point i, so every blob has the
// same population whatever the seed.
func (b blobs) points(r *rand.Rand, n int) [][]float64 {
	flat := make([]float64, n*b.dims)
	pts := make([][]float64, n)
	for i := range pts {
		c := b.centres[i%blobCount]
		p := flat[i*b.dims : (i+1)*b.dims : (i+1)*b.dims]
		for d := range p {
			p[d] = math.Min(1, math.Max(0, c[d]+blobSigma*r.NormFloat64()))
		}
		pts[i] = p
	}
	return pts
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for d := range a {
		x := a[d] - b[d]
		s += x * x
	}
	return s
}
