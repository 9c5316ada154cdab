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

// FuzzRangeQueryOracle holds the gap-pruned range probe to brute force.
// The bytes pick the tree (raw keys from Build, pivot keys from Build, or
// raw keys from BuildWithBox over half the points with the rest Inserted,
// some outside the frame), the metrics, ε and a radius up to it, then
// points and queries. Coordinates sit on a grid that holds the stripe
// edges: on a dyadic grid every difference is exact, so a pair at exactly
// the radius or a query exactly on an edge is a true tie; on a decimal
// grid the edges are rounded products, which is where the gaps' rounding
// bound is needed.
func FuzzRangeQueryOracle(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 7, 7, 0, 1, 0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60})
	f.Add([]byte{3, 1, 0, 1, 12, 3, 1, 0, 9, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 21, 34})
	f.Add([]byte{1, 0, 2, 2, 3, 7, 0, 2, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 201, 202, 250})
	f.Add([]byte{4, 5, 0, 2, 31, 7, 1, 1, 6, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 3, 7, 15, 31, 63, 127})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 12 {
			return
		}
		dims := 1 + int(in[0]%6)
		leaf := 1 + int(in[1]%8)
		metric := vec.Metric(in[2] % 3)
		kind := in[3] % 3 // 0 raw Build, 1 pivot Build, 2 BuildWithBox + Insert
		dyadic := in[6]%2 == 0
		var eps, step float64
		if dyadic {
			eps = float64(in[4]%32+1) / 64
			step = 1.0 / 64
		} else {
			eps = float64(in[4]%32+1) / 50
			step = eps / 4 // every fourth grid value is an edge s·ε
		}
		radius := eps * float64(in[5]%8+1) / 8
		qmetric := vec.Metric(in[7] % 3)
		payload := in[8:]
		n := min(len(payload)/dims, 120)
		if n < 2 {
			return
		}
		// coord maps a byte to a grid value in about [−0.6, 3.4]·(64·step);
		// the point at the origin below pins the frame's Lo to 0, so the
		// edges lie on the grid.
		coord := func(b byte) float64 { return float64(int(b)-40) * step }
		ds := dataset.New(dims, n+1)
		ds.Append(make([]float64, dims))
		p := make([]float64, dims)
		for i := 0; i < n; i++ {
			for k := range p {
				p[k] = max(0, coord(payload[i*dims+k]))
			}
			ds.Append(p)
		}
		var tr *Tree
		switch kind {
		case 0:
			tr = Build(ds, eps, Config{LeafThreshold: leaf, keys: keysRaw})
		case 1:
			tr = Build(ds, eps, Config{LeafThreshold: leaf, Metric: metric, keys: keysPivot})
			if !bounds(metric, qmetric) {
				qmetric = metric
			}
		default:
			// Frame the first half; the rest is inserted, with the
			// coordinates the grid gave them (negative ones outside).
			half := ds.Len() / 2
			grow := dataset.New(dims, ds.Len())
			for i := 0; i < half; i++ {
				grow.Append(ds.Point(i))
			}
			tr = BuildWithBox(grow, eps, grow.Bounds(), Config{LeafThreshold: leaf})
			for i := half; i < ds.Len(); i++ {
				for k := range p {
					p[k] = coord(payload[((i-1)*dims+k)%len(payload)])
				}
				grow.Append(p)
				tr.Insert(i)
			}
			ds = grow
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		th := vec.Threshold(qmetric, radius)
		q := make([]float64, dims)
		// Queries: every point itself (so ties at the radius are common on
		// the grid), then points shifted by the radius along one key, then
		// grid values read from the payload, some outside the frame.
		for qi := 0; qi < 3*ds.Len(); qi++ {
			copy(q, ds.Point(qi%ds.Len()))
			switch qi / ds.Len() {
			case 1:
				k := qi % dims
				if payload[qi%len(payload)]%2 == 0 {
					q[k] += radius
				} else {
					q[k] -= radius
				}
			case 2:
				for k := range q {
					q[k] = coord(payload[(qi*dims+k)%len(payload)])
				}
			}
			got := map[int]bool{}
			tr.RangeQuery(q, qmetric, radius, nil, func(i int) {
				if got[i] {
					t.Fatalf("point %d visited twice", i)
				}
				got[i] = true
			})
			for i := 0; i < ds.Len(); i++ {
				if want := vec.Within(qmetric, q, ds.Point(i), th); want != got[i] {
					t.Fatalf("%s tree (dims=%d leaf=%d eps=%g) %v r=%g query %v: point %d %v within %v, in answer %v",
						tr.Keys(), dims, leaf, eps, qmetric, radius, q, i, ds.Point(i), want, got[i])
				}
			}
		}
	})
}
