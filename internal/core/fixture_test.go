package core

import (
	"math"
	"math/rand"

	"simjoin/internal/dataset"
)

// blobFixture draws n points from ten Gaussian blobs (σ = 0.05) whose
// centres sit in [0.2, 0.8]^dims at least 0.5 apart, clamped to the unit
// cube and dealt round-robin — the clustered shape the repo benchmark's
// join workloads use, generated here so the tests and benchmarks of this
// package do not depend on it.
func blobFixture(seed int64, n, dims int) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	var centres [][]float64
	for len(centres) < 10 {
		c := make([]float64, dims)
		for d := range c {
			c[d] = 0.2 + 0.6*r.Float64()
		}
		far := true
		for _, o := range centres {
			var s float64
			for d := range c {
				s += (c[d] - o[d]) * (c[d] - o[d])
			}
			far = far && s >= 0.25
		}
		if far {
			centres = append(centres, c)
		}
	}
	ds := dataset.New(dims, n)
	p := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d, c := range centres[i%len(centres)] {
			p[d] = math.Min(1, math.Max(0, c+0.05*r.NormFloat64()))
		}
		ds.Append(p)
	}
	return ds
}

// uniformFixture draws n points uniformly from the unit cube.
func uniformFixture(seed int64, n, dims int) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	ds := dataset.New(dims, n)
	p := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range p {
			p[d] = r.Float64()
		}
		ds.Append(p)
	}
	return ds
}
