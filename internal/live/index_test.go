package live

import (
	"math/rand"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// TestIndexIncrementalMatchesRebuild: an index grown point-by-point must
// answer neighbor queries identically to one rebuilt from scratch over
// the same points — including points outside the seed frame, which clamp
// into edge stripes.
func TestIndexIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const eps = 0.2
	all := randPoints(rng, 150, 4)
	// Push some growth points outside the seed bounding box.
	for i := 120; i < 150; i++ {
		all[i][0] += 2.5
	}
	grown := newIndex(fromPoints(all[:50]), eps)
	grown.Adopt(fromPoints(all))
	for grown.Len() < len(all) {
		grown.Next()
	}
	rebuilt := newIndex(fromPoints(all), eps)
	for qi := 0; qi < len(all); qi += 7 {
		var a, b []int
		grown.Neighbors(all[qi], vec.L2, eps, func(i int) { a = append(a, i) })
		rebuilt.Neighbors(all[qi], vec.L2, eps, func(i int) { b = append(b, i) })
		if len(a) != len(b) {
			t.Fatalf("query %d: grown found %d neighbors, rebuilt %d", qi, len(a), len(b))
		}
		seen := make(map[int]bool, len(a))
		for _, i := range a {
			seen[i] = true
		}
		for _, i := range b {
			if !seen[i] {
				t.Fatalf("query %d: rebuilt found %d, grown did not", qi, i)
			}
		}
	}
}

// TestIndexEmptySeed: tracking can start before any point exists; the
// unit frame gives inserts a grid to clamp into.
func TestIndexEmptySeed(t *testing.T) {
	x := newIndex(dataset.New(3, 0), 0.1)
	if x.Len() != 0 {
		t.Fatalf("empty seed has %d points", x.Len())
	}
	x.Adopt(fromPoints([][]float64{{5, 5, 5}, {5, 5, 5.05}})) // far outside the unit frame
	x.Next()
	x.Next()
	var got []int
	x.Neighbors([]float64{5, 5, 5}, vec.L2, 0.1, func(i int) { got = append(got, i) })
	if len(got) != 2 {
		t.Fatalf("found %d neighbors, want 2", len(got))
	}
}

// TestIndexEnsureEps: raising ε rebuilds and widens answers; lowering is
// a no-op and queries at smaller radii still work.
func TestIndexEnsureEps(t *testing.T) {
	x := newIndex(fromPoints([][]float64{{0, 0}, {0.3, 0}, {0.05, 0}}), 0.1)
	x.EnsureEps(0.5)
	if x.Eps() != 0.5 {
		t.Fatalf("eps %g after raise, want 0.5", x.Eps())
	}
	var got []int
	x.Neighbors([]float64{0, 0}, vec.L2, 0.5, func(i int) { got = append(got, i) })
	if len(got) != 3 {
		t.Fatalf("found %d neighbors at raised eps, want 3", len(got))
	}
	x.EnsureEps(0.05) // lowering never shrinks
	if x.Eps() != 0.5 {
		t.Fatalf("eps %g after lower, want 0.5", x.Eps())
	}
}

// BenchmarkIndexAppend prices the two ways to keep a standing ε-index
// current through a 64-point batch at d = 8, on the path a served append
// runs (appendLocked): "append64" adopts the grown snapshot, then probes
// each batch point with Neighbors and indexes it with Next; "rebuild64"
// rebuilds the index over the grown dataset and probes the batch, which
// is what polling would cost. Both run the batch's 64 range queries; only
// the index maintenance differs, so the ratio is the price of NOT having
// the incremental path. The pairs metric counts the range hits.
func BenchmarkIndexAppend(b *testing.B) {
	const n, dims, batch, eps = 4000, 8, 64, 0.15
	full := synth.Generate(synth.Config{N: n, Dims: dims, Seed: 12, Dist: synth.GaussianClusters})
	probe := func(idx *Index, next bool) (hits int) {
		for i := n - batch; i < n; i++ {
			idx.Neighbors(full.Point(i), vec.L2, eps, func(int) { hits++ })
			if next {
				idx.Next()
			}
		}
		return hits
	}
	b.Run("append64", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			idx := newIndex(full.Head(n-batch), eps)
			b.StartTimer()
			idx.Adopt(full)
			hits = probe(idx, true)
		}
		b.ReportMetric(float64(hits), "pairs")
	})
	b.Run("rebuild64", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			hits = probe(newIndex(full, eps), false)
		}
		b.ReportMetric(float64(hits), "pairs")
	})
}
