package vec

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

func benchVectors(d int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	a, b := make([]float64, d), make([]float64, d)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	return a, b
}

func BenchmarkWithinSqL2(b *testing.B) {
	for _, d := range []int{4, 8, 16, 32, 64} {
		x, y := benchVectors(d)
		// Accepting threshold: full accumulation, no early exit.
		b.Run("accept/d="+strconv.Itoa(d), func(b *testing.B) {
			t := 1e18
			for i := 0; i < b.N; i++ {
				if !WithinSqL2(x, y, t) {
					b.Fatal("unexpected reject")
				}
			}
		})
		// Rejecting threshold: early exit path.
		b.Run("reject/d="+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if WithinSqL2(x, y, 1e-9) {
					b.Fatal("unexpected accept")
				}
			}
		})
	}
}

func BenchmarkDistSqL2(b *testing.B) {
	for _, d := range []int{8, 32} {
		x, y := benchVectors(d)
		b.Run("d="+strconv.Itoa(d), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += DistSqL2(x, y)
			}
			_ = sink
		})
	}
}

// BenchmarkWithinL1Linf times one WithinL1 or WithinLinf call at an
// accepting threshold, so every coordinate is read. Each call takes the
// next of 4 096 random pairs of a clustered set: the sign of a coordinate
// difference is a coin flip from call to call, as in a join, where one
// fixed pair would let the branch predictor learn its sign pattern.
func BenchmarkWithinL1Linf(b *testing.B) {
	for _, d := range []int{8, 64} {
		f := randFlat(b, 1024, d, int64(d))
		rng := rand.New(rand.NewSource(1))
		pairs := make([][2][]float64, 4096)
		for i := range pairs {
			pairs[i] = [2][]float64{f.At(rng.Intn(f.Len())), f.At(rng.Intn(f.Len()))}
		}
		for _, m := range []struct {
			name   string
			within func(a, b []float64, eps float64) bool
		}{{"L1", WithinL1}, {"Linf", WithinLinf}} {
			b.Run(m.name+"/d="+strconv.Itoa(d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := &pairs[i%len(pairs)]
					if !m.within(p[0], p[1], math.MaxFloat64) {
						b.Fatal("unexpected reject")
					}
				}
			})
		}
	}
}

// BenchmarkWithinSqL2Flat times the flat L2 probe kernel alone, every
// point of a clustered d = 32 set against the whole set, so a kernel-level
// change is reported against the kernel and not smeared across a join:
// "full" never takes the partial-distance early exit (threshold ∞, raw
// throughput), "early-exit" takes it on nearly every candidate. ns/comp is
// the per-candidate cost the repo benchmark reports as vec.ns_per_comp.
func BenchmarkWithinSqL2Flat(b *testing.B) {
	const n, dims = 600, 32
	f := randFlat(b, n, dims, 14)
	for _, bc := range []struct {
		name string
		th   float64
	}{
		{"full", math.Inf(1)},
		{"early-exit", Threshold(L2, 1.8)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var cand, res int64
			for i := 0; i < b.N; i++ {
				cand, res = 0, 0
				for x := 0; x < n; x++ {
					c, r := ProbeRangeFlat(L2, f, int32(x), f, 0, n, bc.th, func(int32) {})
					cand += c
					res += r
				}
			}
			if res <= n {
				b.Fatalf("degenerate benchmark: %d of %d candidates within range", res, cand)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand), "ns/comp")
		})
	}
}

// BenchmarkSweepL2 reads the L2 sweep loops' per-candidate cost at every
// generated width: "generic" is the any-d loop, "lanes=1" the generated
// one-candidate loop and "lanes=4" the generated loop that tests four
// candidates in lockstep, run back to back at each width. One op
// self-sweeps 16 seeded 256-point blocks of a clustered set and
// cross-sweeps each against the next, every block sorted on coordinate 0,
// at the ε of the set's 10 % distance quantile. A width stays in
// fixedWidths only while its lanes=1 loop reads ≥ 10 % fewer ns/cand than
// the generic one. Its lanes=4 against lanes=1 reading is the layer
// number behind laneWidths, whose rule is end to end (see laneWidths).
func BenchmarkSweepL2(b *testing.B) {
	const blocks, blockLen = 16, 256
	for _, d := range fixedWidths {
		f := randFlat(b, 4096, d, int64(d))
		rng := rand.New(rand.NewSource(int64(d)))
		idx := make([][]int32, blocks)
		for i := range idx {
			idx[i] = make([]int32, blockLen)
			for k := range idx[i] {
				idx[i][k] = int32(rng.Intn(f.Len()))
			}
			sort.Slice(idx[i], func(x, y int) bool { return f.Data[int(idx[i][x])*d] < f.Data[int(idx[i][y])*d] })
		}
		head := FlatView(d, f.Data[:blockLen*d])
		eps := distQuantiles(L2, head, head, 0.1)[0]
		th := Threshold(L2, eps)
		self1, cross1 := fixedLoops(b, d, 1)
		self4, cross4 := fixedLoops(b, d, 4)
		for _, v := range []struct {
			name  string
			self  selfLoop
			cross crossLoop
		}{
			{"generic", selfSweepL2Any, crossSweepL2Any},
			{"lanes=1", self1, cross1},
			{"lanes=4", self4, cross4},
		} {
			b.Run(v.name+"/d="+strconv.Itoa(d), func(b *testing.B) {
				var cand int64
				emit := func(i, j int32) {}
				for n := 0; n < b.N; n++ {
					cand = 0
					for i, x := range idx {
						c, _ := v.self(f.Data, d, f.Data, d, x, eps, th, emit)
						cand += c
						c, _ = v.cross(f.Data, f.Data, d, f.Data, f.Data, d, x, idx[(i+1)%blocks], eps, th, emit)
						cand += c
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand), "ns/cand")
			})
		}
	}
}
