package vec

import (
	"sort"
	"testing"
)

// FuzzFlatKernels drives the flat kernels with adversarial coordinate
// patterns: the raw bytes become a quantized point set (1/256 granularity,
// so exact ε-boundary collisions are common), and every kernel's pair set
// must match an all-pairs evaluation of the metric's reference predicate
// (Within).
func FuzzFlatKernels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2), uint16(300))
	f.Add([]byte{255, 0, 255, 0, 1, 1, 1, 1, 128, 128}, uint8(1), uint16(65535))
	f.Add([]byte{64, 0, 64, 0, 64, 1, 64, 1, 63, 255, 64, 2}, uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, dimsRaw uint8, epsRaw uint16) {
		dims := int(dimsRaw)%9 + 1
		n := len(raw) / 2 / dims
		if n < 2 {
			return
		}
		if n > 48 {
			n = 48
		}
		// Quantized coordinates: int16 / 256 keeps everything finite,
		// modest, and full of exactly-representable boundary ties.
		data := make([]float64, n*dims)
		for i := range data {
			v := int16(raw[2*i]) | int16(raw[2*i+1])<<8
			data[i] = float64(v) / 256
		}
		eps := 1e-3 + float64(epsRaw)/65535*8
		fl := FlatView(dims, data)

		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sweepDim := dims - 1
		sort.Slice(idx, func(a, b int) bool {
			return data[int(idx[a])*dims+sweepDim] < data[int(idx[b])*dims+sweepDim]
		})
		ys := make([]int32, n)
		for i := range ys {
			ys[i] = int32(i)
		}

		for _, m := range []Metric{L2, L1, Linf} {
			th := Threshold(m, eps)

			want := referencePairs(fl, m, eps)
			check := func(name string, got map[pair]bool) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d pairs, want %d (dims %d eps %g)", name, m, len(got), len(want), dims, eps)
				}
				for p := range got {
					if !want[p] {
						t.Fatalf("%s/%s: extra pair %v (dims %d eps %g)", name, m, p, dims, eps)
					}
				}
			}

			got := make(map[pair]bool)
			SelfSweepFlat(m, fl, idx, sweepDim, eps, th, func(i, j int32) { got[canon(pair{i, j})] = true })
			check("SelfSweepFlat", got)

			got = make(map[pair]bool)
			for i := 0; i < n; i++ {
				i := int32(i)
				ProbeRangeFlat(m, fl, i, fl, int(i)+1, n, th, func(j int32) { got[pair{i, j}] = true })
			}
			check("ProbeRangeFlat", got)

			got = make(map[pair]bool)
			CrossSweepFlat(m, fl, fl, idx, idx, sweepDim, eps, th, func(xi, yi int32) {
				if xi != yi {
					got[canon(pair{xi, yi})] = true
				}
			})
			check("CrossSweepFlat", got)
		}
	})
}
