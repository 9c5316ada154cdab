package sketch

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// randomData builds n clustered points in [0,1]^dims: cluster centers
// plus Gaussian spread, the shape the evaluation's workloads use.
func randomData(n, dims int, seed int64) *dataset.Dataset {
	ds, _ := blobData(n, dims, seed)
	return ds
}

// blobData is randomData that also reports each point's blob.
func blobData(n, dims int, seed int64) (*dataset.Dataset, []int) {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 10
	centers := make([][]float64, clusters)
	for i := range centers {
		c := make([]float64, dims)
		for d := range c {
			c[d] = rng.Float64()
		}
		centers[i] = c
	}
	ds := dataset.New(dims, n)
	blob := make([]int, n)
	p := make([]float64, dims)
	for i := 0; i < n; i++ {
		blob[i] = rng.Intn(clusters)
		c := centers[blob[i]]
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*0.05
		}
		ds.Append(p)
	}
	return ds, blob
}

// TestBulkBuildIgnoresUploadOrder: an upload grouped by blob must sketch
// as well as a shuffled one. Observed in the order given, each blob's
// points meet a reservoir drawn from the blobs before them, and the
// estimate lands at 2.1× the exact count at both thresholds.
func TestBulkBuildIgnoresUploadOrder(t *testing.T) {
	ds, blob := blobData(4000, 8, 1)
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return blob[idx[a]] < blob[idx[b]] })
	grouped := ds.Subset(idx)
	s := FromDataset(grouped, Config{})
	for _, eps := range []float64{0.1, 0.3} {
		want := exactSelf(grouped, vec.L2, eps)
		ratio := float64(s.SelfJoinSize(vec.L2, eps)) / float64(want)
		if ratio < 1/1.5 || ratio > 1.5 {
			t.Errorf("eps %g: grouped upload estimates %.2f× the exact %d", eps, ratio, want)
		}
	}
}

// TestSelfJoinSizeMeasuredBias: the mean of the planner's transient-sample
// estimate, selectivity × n(n−1)/2, over many independent draws must sit
// on the exact count. A deliberately small sample (s = 25) makes the
// correct n(n−1)/(s(s−1)) scale and the biased (n/s)² one differ by the
// factor (1−1/s)/(1−1/n) ≈ 4%, and a near-diameter ε keeps the per-draw
// variance tiny — so a ±1.5% band on the mean separates the two.
func TestSelfJoinSizeMeasuredBias(t *testing.T) {
	const (
		n, s  = 2000, 25
		seeds = 40
		eps   = 1.2 // unit square: almost every pair joins
	)
	ds := synth.Generate(synth.Config{N: n, Dims: 2, Seed: 30, Dist: synth.Uniform})
	exact := exactSelf(ds, vec.L2, eps)
	var sum float64
	for seed := int64(0); seed < seeds; seed++ {
		sum += Sample(ds, s, seed).SelfSelectivity(vec.L2, eps) * n * (n - 1) / 2
	}
	ratio := sum / seeds / float64(exact)
	if ratio < 0.985 || ratio > 1.015 {
		t.Errorf("mean estimate / exact = %.4f over %d seeds, want ≈1 (an (n/s)² scale would give ≈%.4f)",
			ratio, seeds, (1-1.0/s)/(1-1.0/n))
	}
}

// TestJoinSizeMeasuredBias is the two-set counterpart: a cross pair
// survives two independent samples with probability (sa/na)·(sb/nb), so
// selectivity × na·nb needs no correction and its mean sits on the exact
// count.
func TestJoinSizeMeasuredBias(t *testing.T) {
	const (
		s     = 30
		seeds = 40
		eps   = 1.2
	)
	a := synth.Generate(synth.Config{N: 1500, Dims: 2, Seed: 31, Dist: synth.Uniform})
	b := synth.Generate(synth.Config{N: 1200, Dims: 2, Seed: 32, Dist: synth.Uniform})
	exact := bruteCount(a, b, vec.L2, eps, false)
	var sum float64
	for seed := int64(0); seed < seeds; seed++ {
		sum += Sample(a, s, seed).JoinSelectivity(Sample(b, s, seed^0x7ab1e5), vec.L2, eps) * 1500 * 1200
	}
	ratio := sum / seeds / float64(exact)
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("mean estimate / exact = %.4f over %d seeds, want ≈1", ratio, seeds)
	}
}

func exactSelf(ds *dataset.Dataset, m vec.Metric, eps float64) int64 {
	return bruteCount(ds, ds, m, eps, true)
}

// TestExactWhileSmall: while every observed point fits in the reservoir
// the sketch must answer with exact counts, for every metric.
func TestExactWhileSmall(t *testing.T) {
	ds := randomData(300, 6, 1)
	s := FromDataset(ds, Config{})
	for _, m := range []vec.Metric{vec.L2, vec.L1, vec.Linf} {
		for _, eps := range []float64{0.01, 0.1, 0.5} {
			want := exactSelf(ds, m, eps)
			if got := s.SelfJoinSize(m, eps); got != want {
				t.Errorf("metric %v eps %g: got %d, want exact %d", m, eps, got, want)
			}
		}
	}
}

// TestSelfAccuracyAcrossEpsAndDims: the streamed estimate must stay
// within a modest factor of the exact count across dimensionality and ε —
// the satellite's sketch-vs-exact accuracy sweep.
func TestSelfAccuracyAcrossEpsAndDims(t *testing.T) {
	for _, dims := range []int{2, 4, 8, 16} {
		ds := randomData(4000, dims, int64(dims))
		s := FromDataset(ds, Config{})
		// ε sweep scaled with dimensionality so the exact count stays
		// populous enough to measure against.
		for _, eps := range []float64{0.1, 0.2, 0.4} {
			want := exactSelf(ds, vec.L2, eps)
			if want < 500 {
				continue // too sparse for a factor-level comparison
			}
			got := s.SelfJoinSize(vec.L2, eps)
			ratio := float64(got) / float64(want)
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("d=%d eps=%g: sketch %d vs exact %d (ratio %.2f)", dims, eps, got, want, ratio)
			}
		}
	}
}

// TestSelfAccuracyOtherMetrics spot-checks L1 and Linf at one workload.
func TestSelfAccuracyOtherMetrics(t *testing.T) {
	ds := randomData(4000, 8, 7)
	s := FromDataset(ds, Config{})
	for _, tc := range []struct {
		m   vec.Metric
		eps float64
	}{{vec.L1, 0.5}, {vec.Linf, 0.1}} {
		want := exactSelf(ds, tc.m, tc.eps)
		if want < 500 {
			t.Fatalf("metric %v eps %g: workload too sparse (%d pairs)", tc.m, tc.eps, want)
		}
		got := s.SelfJoinSize(tc.m, tc.eps)
		ratio := float64(got) / float64(want)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("metric %v: sketch %d vs exact %d (ratio %.2f)", tc.m, got, want, ratio)
		}
	}
}

// TestJoinSizeAccuracy: the two-set estimate (reservoir cross-join)
// must land within a modest factor of the exact cross count.
func TestJoinSizeAccuracy(t *testing.T) {
	// Same seed → same cluster centers, so the two sets overlap densely;
	// the point draws after the centers still differ via the counts.
	a := randomData(3000, 6, 11)
	b := randomData(2500, 6, 11)
	sa := FromDataset(a, Config{})
	sb := FromDataset(b, Config{Seed: 99})
	eps := 0.2
	want := bruteCount(a, b, vec.L2, eps, false)
	if want < 500 {
		t.Fatalf("workload too sparse (%d pairs)", want)
	}
	got := sa.JoinSize(sb, vec.L2, eps)
	ratio := float64(got) / float64(want)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("sketch %d vs exact %d (ratio %.2f)", got, want, ratio)
	}
}

// TestDegenerateEps: non-finite and non-positive thresholds must answer
// without touching any histogram math.
func TestDegenerateEps(t *testing.T) {
	ds := randomData(1000, 4, 3)
	s := FromDataset(ds, Config{})
	n := int64(ds.Len())
	if got := s.SelfJoinSize(vec.L2, -1); got != 0 {
		t.Errorf("eps=-1: got %d, want 0", got)
	}
	if got := s.SelfJoinSize(vec.L2, math.NaN()); got != 0 {
		t.Errorf("eps=NaN: got %d, want 0", got)
	}
	if got := s.SelfJoinSize(vec.L2, math.Inf(1)); got != n*(n-1)/2 {
		t.Errorf("eps=+Inf: got %d, want %d", got, n*(n-1)/2)
	}
	if got := s.JoinSize(s, vec.L2, math.Inf(1)); got != n*n {
		t.Errorf("join eps=+Inf: got %d, want %d", got, n*n)
	}
	if got := s.JoinSize(s, vec.L2, math.NaN()); got != 0 {
		t.Errorf("join eps=NaN: got %d, want 0", got)
	}
}

// TestDeterminism: two sketches fed the same stream must agree exactly.
func TestDeterminism(t *testing.T) {
	ds := randomData(2000, 5, 21)
	a := FromDataset(ds, Config{})
	b := FromDataset(ds, Config{})
	for _, eps := range []float64{0.05, 0.2, 0.8} {
		if ga, gb := a.SelfJoinSize(vec.L2, eps), b.SelfJoinSize(vec.L2, eps); ga != gb {
			t.Errorf("eps %g: %d vs %d", eps, ga, gb)
		}
	}
}

// TestDimsMismatch: cross-sketch estimates across dimensionalities
// report zero rather than panicking.
func TestDimsMismatch(t *testing.T) {
	a := New(3, Config{})
	b := New(4, Config{})
	if got := a.JoinSize(b, vec.L2, 1); got != 0 {
		t.Errorf("got %d, want 0", got)
	}
}

// TestEmptyAndTiny covers the n < 2 edges.
func TestEmptyAndTiny(t *testing.T) {
	s := New(2, Config{})
	if got := s.SelfJoinSize(vec.L2, 1); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	s.Observe([]float64{0, 0})
	if got := s.SelfJoinSize(vec.L2, 1); got != 0 {
		t.Errorf("single point: got %d", got)
	}
	s.Observe([]float64{0.1, 0.1})
	if got := s.SelfJoinSize(vec.L2, 1); got != 1 {
		t.Errorf("two close points: got %d, want 1", got)
	}
}

// TestConcurrentObserveAndQuery drives appends and estimates from many
// goroutines; run under -race this is the package's concurrency gate.
func TestConcurrentObserveAndQuery(t *testing.T) {
	s := New(4, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := make([]float64, 4)
			for i := 0; i < 2000; i++ {
				for d := range p {
					p[d] = rng.Float64()
				}
				s.Observe(p)
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = s.SelfJoinSize(vec.L2, 0.3)
				_ = s.Snapshot()
				_ = s.JoinSize(s, vec.L1, 0.3)
			}
		}()
	}
	wg.Wait()
	if got := s.Len(); got != 8000 {
		t.Errorf("observed %d points, want 8000", got)
	}
}

// TestSnapshotStats sanity-checks the introspection surface.
func TestSnapshotStats(t *testing.T) {
	ds := randomData(1500, 3, 5)
	s := FromDataset(ds, Config{})
	st := s.Snapshot()
	if st.Points != 1500 {
		t.Errorf("points %d", st.Points)
	}
	if st.Reservoir != DefaultReservoir {
		t.Errorf("reservoir %d, want %d", st.Reservoir, DefaultReservoir)
	}
	if st.SampledPairs == 0 {
		t.Error("no sampled pairs recorded")
	}
}
