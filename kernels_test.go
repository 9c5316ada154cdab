package simjoin

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"simjoin/internal/vec"
)

// quantizedDataset builds a clustered dataset whose coordinates are all
// multiples of 1/64 — exactly representable in binary, so inter-point
// distances collide with ε boundaries routinely instead of almost never.
func quantizedDataset(n, dims int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := NewDataset(dims)
	p := make([]float64, dims)
	center := make([]float64, dims)
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			for k := range center {
				center[k] = float64(rng.Intn(48)) / 64
			}
		}
		for k := range p {
			p[k] = center[k] + float64(rng.Intn(17))/64
		}
		ds.Append(p)
	}
	return ds
}

// oraclePairs evaluates the reference predicate — vec.Within over float64
// slice views — on every pair.
func oraclePairs(ds *Dataset, m Metric, eps float64) []Pair {
	im := m.internal()
	th := vec.Threshold(im, eps)
	var out []Pair
	n := ds.Len()
	for i := 0; i < n; i++ {
		pi := ds.Point(i)
		for j := i + 1; j < n; j++ {
			if vec.Within(im, pi, ds.Point(j), th) {
				out = append(out, Pair{i, j})
			}
		}
	}
	return out
}

func sortedPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	for i, p := range out {
		if p.I > p.J {
			out[i] = Pair{p.J, p.I}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

func diffPairs(a, b []Pair) []Pair {
	in := make(map[Pair]bool, len(b))
	for _, p := range b {
		in[p] = true
	}
	var out []Pair
	for _, p := range a {
		if !in[p] {
			out = append(out, p)
		}
	}
	return out
}

// TestEnginesMatchOracle holds every algorithm, across every metric and a
// low/medium/high dimensionality, to the exact pair set of the reference
// predicate — on boundary-rich quantized data where distances tie with ε
// exactly. This is the contract the flat kernels must preserve: the SoA
// refactor changes the memory walk, never the accepted set.
func TestEnginesMatchOracle(t *testing.T) {
	for _, dims := range []int{2, 8, 32} {
		ds := quantizedDataset(280, dims, int64(dims))
		for _, m := range []Metric{L2, L1, Linf} {
			// ε grows with dimensionality (L1 linearly, L2 as √d, Linf not
			// at all) to keep the result non-degenerate; 1/64-multiples make
			// exact boundary ties common.
			eps := map[Metric]map[int]float64{
				L2:   {2: 0.25, 8: 0.375, 32: 0.75},
				L1:   {2: 0.25, 8: 1, 32: 3.5},
				Linf: {2: 0.25, 8: 0.25, 32: 0.25},
			}[m][dims]
			want := sortedPairs(oraclePairs(ds, m, eps))
			if len(want) == 0 {
				t.Fatalf("degenerate oracle: no pairs at dims=%d metric=%s", dims, m)
			}
			for _, algo := range Algorithms() {
				res, err := SelfJoin(ds, Options{Eps: eps, Metric: m, Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				got := sortedPairs(res.Pairs)
				if len(got) != len(want) {
					t.Errorf("dims=%d metric=%s algo=%s: %d pairs, want %d (missing %v, extra %v)",
						dims, m, algo, len(got), len(want), diffPairs(want, got), diffPairs(got, want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("dims=%d metric=%s algo=%s: pair %d = %v, want %v", dims, m, algo, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestEnginesEpsBoundaryExact pins the ≤-vs-< boundary: a pair at distance
// exactly ε is in the result, one a single ULP past ε is not — for every
// algorithm and metric. All coordinates and thresholds are powers-of-two
// fractions, so every distance involved is exactly representable.
func TestEnginesEpsBoundaryExact(t *testing.T) {
	// d(0,1): L2 = 0.3125 (3-4-5 triangle scaled by 1/16), L1 = 0.4375,
	// Linf = 0.25. Point 2 is far from both.
	ds := FromPoints([][]float64{
		{0, 0, 0, 0},
		{0.1875, 0.25, 0, 0},
		{4, 4, 4, 4},
	})
	exact := map[Metric]float64{L2: 0.3125, L1: 0.4375, Linf: 0.25}
	for m, d := range exact {
		for _, algo := range Algorithms() {
			at, err := SelfJoin(ds, Options{Eps: d, Metric: m, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(at.Pairs) != 1 || at.Pairs[0] != (Pair{0, 1}) {
				t.Errorf("metric=%s algo=%s eps=dist: pairs = %v, want [{0 1}]", m, algo, at.Pairs)
			}
			below, err := SelfJoin(ds, Options{Eps: math.Nextafter(d, 0), Metric: m, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(below.Pairs) != 0 {
				t.Errorf("metric=%s algo=%s eps just below dist: pairs = %v, want none", m, algo, below.Pairs)
			}
		}
	}
}
