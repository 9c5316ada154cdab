package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func randomDataset(rng *rand.Rand, n, d int) *Dataset {
	ds := New(d, n)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		for k := range p {
			p[k] = rng.NormFloat64() * 100
		}
		ds.Append(p)
	}
	return ds
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero dims":         func() { New(0, 0) },
		"from empty":        func() { FromPoints(nil) },
		"flat misaligned":   func() { FromFlat(3, make([]float64, 7)) },
		"flat zero dims":    func() { FromFlat(0, nil) },
		"append wrong dims": func() { New(2, 0).Append([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAppendAndPointViews(t *testing.T) {
	ds := New(3, 0)
	ds.Append([]float64{1, 2, 3})
	ds.Append([]float64{4, 5, 6})
	if ds.Len() != 2 || ds.Dims() != 3 {
		t.Fatalf("Len/Dims = %d/%d, want 2/3", ds.Len(), ds.Dims())
	}
	p := ds.Point(1)
	if p[0] != 4 || p[2] != 6 {
		t.Fatalf("Point(1) = %v", p)
	}
	// Views are writable.
	p[0] = 40
	if ds.Point(1)[0] != 40 {
		t.Fatal("Point view is not aliased")
	}
	// Full-slice expression must prevent append-through-view corruption.
	_ = append(ds.Point(0), 999)
	if ds.Point(1)[0] != 40 {
		t.Fatal("append through a point view corrupted the next point")
	}
	if rows := ds.Rows(); len(rows) != 2 || &rows[1][0] != &ds.Point(1)[0] || cap(rows[0]) != 3 {
		t.Fatalf("Rows = %v, want the two point views", rows)
	}
}

func TestFromPointsAndFlat(t *testing.T) {
	pts := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	ds := FromPoints(pts)
	if ds.Len() != 3 {
		t.Fatalf("Len = %d", ds.Len())
	}
	pts[0][0] = 99 // FromPoints copies
	if ds.Point(0)[0] == 99 {
		t.Fatal("FromPoints aliases input")
	}
	flat := []float64{1, 2, 3, 4}
	fd := FromFlat(2, flat)
	if fd.Len() != 2 || fd.Point(1)[1] != 4 {
		t.Fatalf("FromFlat wrong: %v", fd.Flat())
	}
	flat[0] = 77 // FromFlat aliases by contract
	if fd.Point(0)[0] != 77 {
		t.Fatal("FromFlat did not alias input")
	}
}

func TestAppendFlat(t *testing.T) {
	ds := FromPoints([][]float64{{1, 2}})
	ds.AppendFlat([]float64{3, 4, 5, 6})
	if ds.Len() != 3 || ds.Point(2)[1] != 6 {
		t.Fatalf("after AppendFlat: len=%d flat=%v", ds.Len(), ds.Flat())
	}
	defer func() {
		if recover() == nil {
			t.Error("misaligned AppendFlat did not panic")
		}
	}()
	ds.AppendFlat(make([]float64, 3))
}

// TestGrowFromNewestDoesNotCopy is the headline property of append-only
// snapshots: growing the newest snapshot while the buffer has room costs
// one snapshot header, not a copy of the points already there.
func TestGrowFromNewestDoesNotCopy(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(1)), 100, 2)
	g := ds.Grow([]float64{5, 6})
	if g.Len() != 101 || ds.Len() != 100 || g.Point(100)[1] != 6 {
		t.Fatalf("Grow: len %d (parent %d), last point %v", g.Len(), ds.Len(), g.Point(g.Len()-1))
	}
	if cap(g.Flat()) != len(g.Flat()) {
		t.Fatalf("snapshot published with cap %d > len %d", cap(g.Flat()), len(g.Flat()))
	}
	first := &g.Flat()[0]
	p := []float64{7, 8}
	allocs := testing.AllocsPerRun(10, func() { g = g.Grow(p) })
	if allocs > 1 {
		t.Errorf("Grow from the newest snapshot made %v allocations, want the header only", allocs)
	}
	if &g.Flat()[0] != first {
		t.Error("Grow from the newest snapshot moved the points")
	}
	if g.Len() != 112 || g.Point(111)[0] != 7 || !g.Head(100).Equal(ds) {
		t.Fatalf("after growing: len %d, last point %v", g.Len(), g.Point(g.Len()-1))
	}
}

// TestGrowFromStaleSnapshotCopies: a snapshot that a later Grow already
// extended must not be extended in place — that would overwrite the
// points the newer snapshot sees.
func TestGrowFromStaleSnapshotCopies(t *testing.T) {
	s1 := FromPoints([][]float64{{1, 1}}).Grow([]float64{2, 2})
	s2 := s1.Grow([]float64{3, 3})
	want := s2.Clone()
	s3 := s1.Grow([]float64{9, 9})
	if !s2.Equal(want) {
		t.Fatalf("growing a stale snapshot changed the newer one: %v, want %v", s2.Flat(), want.Flat())
	}
	if &s3.Flat()[0] == &s2.Flat()[0] {
		t.Error("Grow from a stale snapshot shares the newer snapshot's storage")
	}
	if s3.Len() != 3 || s3.Point(2)[0] != 9 || s3.Point(1)[0] != 2 {
		t.Fatalf("stale Grow = %v", s3.Flat())
	}
	// The copy heads its own line: growing it again extends in place.
	s4 := s3.Grow([]float64{10, 10})
	if &s4.Flat()[0] != &s3.Flat()[0] || !s2.Equal(want) {
		t.Error("the copied line does not grow in place, or touched the old line")
	}
}

// TestAppendOnSnapshotIsPrivate: Append on a published snapshot
// reallocates (cap == len) and leaves the shared buffer, so no other
// snapshot of the line changes, now or on a later Grow.
func TestAppendOnSnapshotIsPrivate(t *testing.T) {
	s1 := FromPoints([][]float64{{1, 1}}).Grow([]float64{2, 2})
	s2 := s1.Grow([]float64{3, 3})
	old2 := s2.Clone()
	s1.Append([]float64{7, 7})
	s1.AppendFlat([]float64{8, 8})
	if !s2.Equal(old2) {
		t.Fatalf("Append on an older snapshot changed the newer one: %v", s2.Flat())
	}
	s3 := s1.Grow([]float64{6, 6})
	if s3.Len() != 5 || s3.Point(2)[0] != 7 || s3.Point(3)[0] != 8 || s3.Point(4)[0] != 6 {
		t.Fatalf("Grow after Append = %v", s3.Flat())
	}
	if !s2.Equal(old2) {
		t.Fatalf("Grow of an appended snapshot changed another one: %v", s2.Flat())
	}
}

// TestGrowWhileReadersScan: one writer grows the line while readers scan
// whatever snapshot is current; every snapshot a reader sees holds
// exactly the points written before it was published. Meaningful under
// -race.
func TestGrowWhileReadersScan(t *testing.T) {
	const dims, batches, batch = 3, 300, 7
	var cur atomic.Pointer[Dataset]
	cur.Store(New(dims, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := cur.Load()
				for i := 0; i < s.Len(); i++ {
					for _, v := range s.Point(i) {
						if v != float64(i) {
							errs <- fmt.Sprintf("snapshot of %d points: point %d reads %g", s.Len(), i, v)
							return
						}
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	flat := make([]float64, batch*dims)
	for b := 0; b < batches; b++ {
		for i := range flat {
			flat[i] = float64(b*batch + i/dims)
		}
		cur.Store(cur.Load().Grow(flat))
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := cur.Load().Len(); n != batches*batch {
		t.Fatalf("final length %d, want %d", n, batches*batch)
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := FromPoints([][]float64{{1, 2}, {3, 4}})
	c := ds.Clone()
	if !ds.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Point(0)[0] = 42
	if ds.Point(0)[0] == 42 {
		t.Fatal("clone aliases original")
	}
}

func TestEqual(t *testing.T) {
	a := FromPoints([][]float64{{1, 2}})
	b := FromPoints([][]float64{{1, 2}})
	if !a.Equal(b) {
		t.Error("identical datasets not Equal")
	}
	if a.Equal(FromPoints([][]float64{{1, 3}})) {
		t.Error("different datasets Equal")
	}
	if a.Equal(FromPoints([][]float64{{1}, {2}})) {
		t.Error("different-dims datasets Equal")
	}
}

func TestBoundsSubsetHead(t *testing.T) {
	ds := FromPoints([][]float64{{0, 10}, {5, -3}, {2, 2}})
	b := ds.Bounds()
	if b.Lo[0] != 0 || b.Lo[1] != -3 || b.Hi[0] != 5 || b.Hi[1] != 10 {
		t.Fatalf("Bounds = %v", b)
	}
	s := ds.Subset([]int{2, 0})
	if s.Len() != 2 || s.Point(0)[0] != 2 || s.Point(1)[1] != 10 {
		t.Fatalf("Subset wrong: %v", s.Flat())
	}
	h := ds.Head(2)
	if h.Len() != 2 || h.Point(1)[0] != 5 {
		t.Fatalf("Head wrong: %v", h.Flat())
	}
	if ds.Head(100).Len() != 3 {
		t.Fatal("Head over-length did not clamp")
	}
}

func TestShuffleIsPermutationAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 200, 4)
	orig := ds.Clone()
	ds.Shuffle(123)
	if ds.Equal(orig) {
		t.Fatal("shuffle left data unchanged (astronomically unlikely)")
	}
	// Same multiset of points.
	key := func(d *Dataset) []string {
		keys := make([]string, d.Len())
		for i := 0; i < d.Len(); i++ {
			keys[i] = pointKey(d.Point(i))
		}
		sort.Strings(keys)
		return keys
	}
	ka, kb := key(ds), key(orig)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatal("shuffle changed the point multiset")
		}
	}
	// Determinism: same seed, same permutation.
	again := orig.Clone()
	again.Shuffle(123)
	if !again.Equal(ds) {
		t.Fatal("shuffle is not deterministic for a fixed seed")
	}
}

// pointKey encodes a point's exact bit pattern so multisets of points can be
// compared as sorted strings.
func pointKey(p []float64) string {
	b := make([]byte, 0, 17*len(p))
	for _, v := range p {
		b = append(b, ',')
		u := math.Float64bits(v)
		for i := 0; i < 16; i++ {
			b = append(b, "0123456789abcdef"[u&0xf])
			u >>= 4
		}
	}
	return string(b)
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 1+r.Intn(50), 1+r.Intn(8))
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return ds.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCSVCommentsAndErrors(t *testing.T) {
	in := "# header comment\n1,2\n\n3,4\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dims() != 2 {
		t.Fatalf("parsed %dx%d", ds.Len(), ds.Dims())
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 1+r.Intn(50), 1+r.Intn(8))
		var buf bytes.Buffer
		if err := ds.WriteBinary(&buf); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return ds.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
	// Special values survive binary (but are rejected conceptually by CSV
	// parse of "NaN"? strconv parses NaN fine — check binary only here).
	ds := FromPoints([][]float64{{math.Inf(1), math.Inf(-1)}})
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil || !ds.Equal(back) {
		t.Fatal("infinities did not round-trip in binary")
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("SJ")); err == nil {
		t.Error("truncated magic accepted")
	}
	var buf bytes.Buffer
	ds := FromPoints([][]float64{{1, 2}, {3, 4}})
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(10))
	ds := randomDataset(rng, 30, 5)
	for _, name := range []string{"pts.csv", "pts.bin"} {
		path := filepath.Join(dir, name)
		if err := ds.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ds.Equal(back) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

func TestMemoryBytes(t *testing.T) {
	ds := New(4, 100)
	if got := ds.MemoryBytes(); got < 100*4*8 {
		t.Errorf("MemoryBytes = %d, want >= %d", got, 100*4*8)
	}
}

func TestFlatAliases(t *testing.T) {
	ds := FromPoints([][]float64{{1, 2}, {3, 4}})
	flat := ds.Flat()
	if len(flat) != 4 || flat[3] != 4 {
		t.Fatalf("Flat = %v", flat)
	}
	flat[0] = 9
	if ds.Point(0)[0] != 9 {
		t.Error("Flat does not alias storage")
	}
}
