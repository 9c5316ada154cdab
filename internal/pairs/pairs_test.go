package pairs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPairCanonAndLess(t *testing.T) {
	p := Pair{I: 5, J: 2}
	if c := p.Canon(); c.I != 2 || c.J != 5 {
		t.Errorf("Canon = %v", c)
	}
	q := Pair{I: 2, J: 5}
	if q.Canon() != q {
		t.Error("Canon changed an ordered pair")
	}
	if !(Pair{1, 9}).Less(Pair{2, 0}) {
		t.Error("Less by I failed")
	}
	if !(Pair{1, 2}).Less(Pair{1, 3}) {
		t.Error("Less by J failed")
	}
	if (Pair{1, 2}).Less(Pair{1, 2}) {
		t.Error("Less of equal pairs true")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Emit(i, i+1)
			}
		}()
	}
	wg.Wait()
	if c.N() != workers*each {
		t.Errorf("N = %d, want %d", c.N(), workers*each)
	}
	c.Reset()
	if c.N() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestCollectorCanonical(t *testing.T) {
	c := &Collector{Canonical: true}
	c.Emit(5, 2)
	c.Emit(1, 3)
	got := c.Sorted()
	want := []Pair{{1, 3}, {2, 5}}
	if !Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	raw := &Collector{}
	raw.Emit(5, 2)
	if raw.Pairs[0] != (Pair{5, 2}) {
		t.Error("non-canonical collector reordered endpoints")
	}
}

// TestShardedMatchesSerial checks a sharded collection merges to the serial
// answer, below the radix cutoff and far above it.
func TestShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{radixCutoff / 2, 500, 40000} {
		rng := rand.New(rand.NewSource(1))
		all := make([]Pair, n)
		for i := range all {
			all[i] = Pair{I: int32(rng.Intn(100)), J: int32(rng.Intn(100))}
		}
		serial := &Collector{Canonical: true}
		for _, p := range all {
			serial.Emit(int(p.I), int(p.J))
		}
		sh := NewSharded(true)
		var wg sync.WaitGroup
		const workers = 4
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := sh.Handle()
				for i := w; i < len(all); i += workers {
					h.Emit(int(all[i].I), int(all[i].J))
				}
			}(w)
		}
		wg.Wait()
		if !Equal(serial.Sorted(), sh.Merged()) {
			t.Errorf("n=%d: sharded result differs from serial", n)
		}
	}
}

// TestShardedSingleShard checks the serial use of a Sharded: one handle,
// and Merged hands back that shard's pairs sorted.
func TestShardedSingleShard(t *testing.T) {
	sh := NewSharded(true)
	h := sh.Handle()
	h.Emit(5, 2)
	h.Emit(1, 3)
	if got, want := sh.Merged(), []Pair{{1, 3}, {2, 5}}; !Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := NewSharded(false).Merged(); len(got) != 0 {
		t.Errorf("no shards merged to %v", got)
	}
}

// referenceSort is the order SortPairs must produce: Pair.Less, through a
// comparison sort.
func referenceSort(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
}

// TestSortPairsMatchesReference holds SortPairs to the comparison-sort
// answer on every side of the cutoff and for index ranges that make each
// combination of radix digits constant or varying: a digit all pairs agree
// on is skipped, so each skip pattern is its own path.
func TestSortPairsMatchesReference(t *testing.T) {
	const top = math.MaxInt32
	ranges := []struct {
		name string
		gen  func(r *rand.Rand, k int) Pair
	}{
		{"below 2^8", func(r *rand.Rand, _ int) Pair { return Pair{I: r.Int31n(200), J: r.Int31n(200)} }},
		{"below 2^16", func(r *rand.Rand, _ int) Pair { return Pair{I: r.Int31n(12000), J: r.Int31n(12000)} }},
		{"straddling 2^16", func(r *rand.Rand, _ int) Pair { return Pair{I: 65000 + r.Int31n(1000), J: 65000 + r.Int31n(1000)} }},
		{"straddling 2^24", func(r *rand.Rand, _ int) Pair { return Pair{I: 1<<24 - 300 + r.Int31n(600), J: r.Int31n(1 << 25)} }},
		{"near MaxInt32", func(r *rand.Rand, _ int) Pair { return Pair{I: top - r.Int31n(70000), J: top - r.Int31n(70000)} }},
		{"full range", func(r *rand.Rand, _ int) Pair { return Pair{I: r.Int31(), J: r.Int31()} }},
		{"constant I", func(r *rand.Rand, _ int) Pair { return Pair{I: 70001, J: r.Int31n(100000)} }},
		{"constant J", func(r *rand.Rand, _ int) Pair { return Pair{I: r.Int31n(100000), J: 70001} }},
		{"high bytes only", func(r *rand.Rand, _ int) Pair { return Pair{I: r.Int31n(64) << 24, J: r.Int31n(64) << 16} }},
		{"all equal", func(*rand.Rand, int) Pair { return Pair{I: 4242, J: 99999} }},
		{"heavy duplicates", func(r *rand.Rand, _ int) Pair { return Pair{I: r.Int31n(3) * 40000, J: r.Int31n(3) * 300} }},
		{"already sorted", func(_ *rand.Rand, k int) Pair { return Pair{I: int32(k / 7), J: int32(k)} }},
		{"reverse sorted", func(_ *rand.Rand, k int) Pair { return Pair{I: top - int32(k/7), J: top - int32(k)} }},
	}
	lengths := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 5000}
	if !testing.Short() {
		lengths = append(lengths, 300000)
	}
	for _, rg := range ranges {
		for _, n := range lengths {
			r := rand.New(rand.NewSource(int64(n) + 1))
			got := make([]Pair, n)
			for k := range got {
				got[k] = rg.gen(r, k)
			}
			want := slices.Clone(got)
			referenceSort(want)
			SortPairs(got)
			if !Equal(got, want) {
				t.Errorf("%s, n=%d: SortPairs differs from the comparison sort: %s", rg.name, n, Diff(want, got))
			}
		}
	}
}

// FuzzSortPairs feeds arbitrary bytes through SortPairs as non-negative
// pairs: the output must be the reference order, which for equal-length
// slices also makes it the same multiset.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(3))
	f.Add([]byte(strings.Repeat("\xff\x00\x80\x7f", 40)), uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, repeat uint8) {
		var ps []Pair
		for ; len(raw) >= 8; raw = raw[8:] {
			ps = append(ps, Pair{
				I: int32(binary.LittleEndian.Uint32(raw) & math.MaxInt32),
				J: int32(binary.LittleEndian.Uint32(raw[4:]) & math.MaxInt32),
			})
		}
		// Repeating the input with a drifting I gets short fuzz inputs
		// past the cutoff, onto the radix path.
		base := len(ps)
		for rep := 1; rep <= int(repeat); rep++ {
			for _, p := range ps[:base] {
				ps = append(ps, Pair{I: (p.I + int32(rep)) & math.MaxInt32, J: p.J})
			}
		}
		want := slices.Clone(ps)
		referenceSort(want)
		SortPairs(ps)
		if !Equal(ps, want) {
			t.Fatalf("SortPairs differs from the comparison sort: %s", Diff(want, ps))
		}
	})
}

// TestCollectorGrowthIsDoubling emits a million pairs and bounds what the
// Collector allocated on the way. Doubling copies the result at most once
// over, so everything allocated is about twice the result; append's own
// 1.25× growth of large slices allocates about five times it.
func TestCollectorGrowthIsDoubling(t *testing.T) {
	const n = 1000000
	col := &Collector{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		col.Emit(k, k+1)
	}
	runtime.ReadMemStats(&after)
	if len(col.Pairs) != n {
		t.Fatalf("collected %d pairs, want %d", len(col.Pairs), n)
	}
	result := uint64(n) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got > result*5/2 {
		t.Errorf("emitting %d pairs allocated %d bytes, over 2.5× the result's %d", n, got, result)
	}
}

func TestSortDedup(t *testing.T) {
	ps := []Pair{{3, 4}, {1, 2}, {3, 4}, {1, 2}, {0, 9}}
	SortPairs(ps)
	ps = Dedup(ps)
	want := []Pair{{0, 9}, {1, 2}, {3, 4}}
	if !Equal(ps, want) {
		t.Errorf("got %v, want %v", ps, want)
	}
	if got := Dedup(nil); len(got) != 0 {
		t.Error("Dedup(nil) non-empty")
	}
}

func TestDedupProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ps := make([]Pair, len(raw)/2)
		for i := range ps {
			ps[i] = Pair{I: int32(raw[2*i]), J: int32(raw[2*i+1])}
		}
		SortPairs(ps)
		d := Dedup(ps)
		// No adjacent duplicates, sorted, and every input present.
		for i := 1; i < len(d); i++ {
			if d[i] == d[i-1] || d[i].Less(d[i-1]) {
				return false
			}
		}
		seen := map[Pair]bool{}
		for _, p := range d {
			seen[p] = true
		}
		for _, p := range ps {
			if !seen[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := []Pair{{1, 2}, {3, 4}}
	b := []Pair{{1, 2}, {3, 5}}
	if Equal(a, b) {
		t.Error("unequal sets Equal")
	}
	if !Equal(a, a) {
		t.Error("identical sets not Equal")
	}
	d := Diff(a, b)
	if !strings.Contains(d, "(3,4)") || !strings.Contains(d, "(3,5)") {
		t.Errorf("Diff = %q missing expected pairs", d)
	}
	// Truncation kicks in past 8 examples.
	var long []Pair
	for i := 0; i < 20; i++ {
		long = append(long, Pair{int32(i), int32(i + 1)})
	}
	if got := Diff(long, nil); !strings.Contains(got, "…") {
		t.Errorf("Diff truncation missing: %q", got)
	}
}

// BenchmarkSortPairs times SortPairs alone — the last step of every
// collecting join — over seeded canonical pairs on 12 000 points, unsorted
// as the engines emit them. The three sizes are the measurement behind
// radixCutoff and the byte-wide digit: the cutoff itself (the shortest
// input on the radix path), a served join's result (benchmark/
// serve_query) and a bulk join's (benchmark/ join_pairs). The timed op
// includes refilling the slice from the unsorted master.
func BenchmarkSortPairs(b *testing.B) {
	const points = 12000
	for _, n := range []int{radixCutoff, 2000, 250000} {
		rng := rand.New(rand.NewSource(15))
		master := make([]Pair, n)
		for i := range master {
			master[i] = Pair{I: rng.Int31n(points), J: rng.Int31n(points)}.Canon()
		}
		ps := make([]Pair, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(ps, master)
				SortPairs(ps)
			}
		})
	}
}
