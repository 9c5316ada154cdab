package core

import (
	"encoding/binary"
	"math"
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// FuzzSelfJoinOracle decodes arbitrary bytes into a small dataset plus
// join parameters and holds the ε-kdB tree to the brute-force answer. This
// is the deepest fuzz target in the library: any stripe-boundary,
// clamping, duplicate-value or recursion defect surfaces as a pair-set
// mismatch.
func FuzzSelfJoinOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 1, 1, 1, 1, 128, 64, 32, 16})
	f.Add([]byte{11, 3, 2, 0, 20, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 100, 50, 25, 12, 6, 3,
		1, 0, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241, 240, 17, 34, 51, 68, 85, 102})
	// d = 64, pivot keys forced: 24 points in four tight clusters, so the
	// sweeps see hits inside a cluster and misses across.
	wide := []byte{14, 4, 0, 0, 40, 1}
	for i := 0; i < 24*64; i++ {
		wide = binary.LittleEndian.AppendUint16(wide, uint16((i/64)%4*100+i*7%5))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 9 {
			return
		}
		// 1…12, then the widths with generated sweep loops.
		dims := [...]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 32, 64}[int(in[0])%15]
		leaf := 1 + int(in[1]%16)
		metric := vec.Metric(in[2] % 3)
		biased := in[3]%2 == 1
		// ε in (0, ~1.3]: derived from a byte so the fuzzer controls it.
		eps := float64(in[4]%64+1) / 50
		// Odd: force pivot keys, which at these sizes the build's own
		// choice rarely takes; even: let it choose.
		keys := keysAuto
		if in[5]%2 == 1 {
			keys = keysPivot
		}
		payload := in[6:]

		// Decode two bytes per coordinate into [0, 1] with many exact
		// duplicates (low-entropy bytes collide), which is exactly the
		// regime that breaks stripe logic.
		n := len(payload) / (2 * dims)
		if n < 2 {
			return
		}
		if n > 150 {
			n = 150
		}
		ds := dataset.New(dims, n)
		p := make([]float64, dims)
		for i := 0; i < n; i++ {
			for k := 0; k < dims; k++ {
				raw := binary.LittleEndian.Uint16(payload[(i*dims+k)*2:])
				p[k] = float64(raw%512) / 511 // coarse grid → duplicates
			}
			ds.Append(p)
		}

		opt := join.Options{Metric: metric, Eps: eps}
		want := &pairs.Collector{Canonical: true}
		brute.SelfJoin(ds, opt, want)

		tr := Build(ds, eps, Config{LeafThreshold: leaf, BiasedSplit: biased, Metric: metric, keys: keys})
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		got := &pairs.Collector{Canonical: true}
		tr.SelfJoin(opt, got)
		g := pairs.Dedup(got.Sorted())
		if len(g) != len(got.Pairs) {
			t.Fatalf("duplicate pairs emitted (dims=%d leaf=%d eps=%g keys=%s)", dims, leaf, eps, tr.Keys())
		}
		if !pairs.Equal(g, want.Sorted()) {
			t.Fatalf("oracle mismatch (dims=%d leaf=%d eps=%g metric=%v keys=%s): %s",
				dims, leaf, eps, metric, tr.Keys(), pairs.Diff(g, want.Pairs))
		}

		// The range query must agree with a scan for a random-ish query
		// point derived from the same bytes.
		q := make([]float64, dims)
		for k := range q {
			q[k] = float64(payload[k%len(payload)]) / 255
		}
		radius := eps * (0.25 + float64(in[6]%4)/4) // within (0, eps]
		if radius > eps {
			radius = eps
		}
		gotHits := map[int]bool{}
		tr.RangeQuery(q, metric, radius, nil, func(i int) { gotHits[i] = true })
		th := vec.Threshold(metric, radius)
		for i := 0; i < ds.Len(); i++ {
			want := vec.Within(metric, q, ds.Point(i), th)
			if want != gotHits[i] {
				t.Fatalf("range query mismatch at point %d (radius %g)", i, radius)
			}
		}
		if math.IsNaN(eps) {
			t.Fatal("unreachable")
		}
	})
}
