// Package pairs defines how join results are reported and compared. All join
// algorithms emit results through a Sink, so the same implementation serves
// counting runs (benchmarks), collecting runs (applications), and exact
// set-comparison runs (the oracle tests that hold every algorithm to the
// brute-force answer).
package pairs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Pair identifies one result of a similarity join by the indexes of its two
// points. For self-joins the canonical form has I < J; for two-set joins I
// indexes the outer (A) set and J the inner (B) set, and no ordering between
// them is implied.
type Pair struct {
	I, J int32
}

// Canon returns the pair with its endpoints ordered (I ≤ J). Only meaningful
// for self-join results.
func (p Pair) Canon() Pair {
	if p.I > p.J {
		return Pair{I: p.J, J: p.I}
	}
	return p
}

// Less orders pairs lexicographically.
func (p Pair) Less(q Pair) bool {
	if p.I != q.I {
		return p.I < q.I
	}
	return p.J < q.J
}

// Sink consumes join results one pair at a time. Implementations are NOT
// required to be safe for concurrent use; parallel joins must either use an
// explicitly concurrent sink (Counter, Sharded) or shard privately and
// merge.
type Sink interface {
	// Emit reports that points i and j joined. Self-join algorithms emit
	// each unordered pair exactly once (in either order); two-set joins
	// emit (a-index, b-index).
	Emit(i, j int)
}

// Counter is a concurrency-safe Sink that only counts results.
type Counter struct {
	n atomic.Int64
}

// Emit implements Sink.
func (c *Counter) Emit(i, j int) { c.n.Add(1) }

// N returns the number of pairs emitted so far.
func (c *Counter) N() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Collector is a Sink that stores every pair. If Canonical is set, each pair
// is stored endpoint-ordered (for self-join results). Not safe for
// concurrent use; wrap in Sharded for parallel joins.
type Collector struct {
	Canonical bool
	Pairs     []Pair
}

// Emit implements Sink.
func (c *Collector) Emit(i, j int) {
	p := Pair{I: int32(i), J: int32(j)}
	if c.Canonical {
		p = p.Canon()
	}
	if len(c.Pairs) == cap(c.Pairs) {
		c.grow()
	}
	c.Pairs = append(c.Pairs, p)
}

// grow doubles the buffer. append grows large slices by 1.25×, which
// allocates about five times the final result on the way up and copies four
// of them; doubling allocates twice the result and copies it once over.
func (c *Collector) grow() {
	grown := make([]Pair, len(c.Pairs), max(2*cap(c.Pairs), collectorMinCap))
	copy(grown, c.Pairs)
	c.Pairs = grown
}

// collectorMinCap is a Collector's first allocation, in pairs.
const collectorMinCap = 64

// Sorted returns the collected pairs in lexicographic order (sorting in
// place).
func (c *Collector) Sorted() []Pair {
	SortPairs(c.Pairs)
	return c.Pairs
}

// Sharded adapts any per-goroutine Sink factory into a concurrent Sink by
// giving each goroutine its own shard via sync.Pool-free explicit handles.
// Use: s := NewSharded(...); h := s.Handle() per goroutine; h.Emit(...).
type Sharded struct {
	mu     sync.Mutex
	shards []*Collector
	canon  bool
}

// NewSharded returns a Sharded collector; canonical applies to every shard.
func NewSharded(canonical bool) *Sharded {
	return &Sharded{canon: canonical}
}

// Handle returns a private, single-goroutine Sink whose results are owned by
// the Sharded parent.
func (s *Sharded) Handle() Sink {
	c := &Collector{Canonical: s.canon}
	s.mu.Lock()
	s.shards = append(s.shards, c)
	s.mu.Unlock()
	return c
}

// Merged returns all shards' pairs, sorted lexicographically. A lone
// shard (a serial run) is sorted in place and returned as is.
func (s *Sharded) Merged() []Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.shards) == 1 {
		return s.shards[0].Sorted()
	}
	var total int
	for _, sh := range s.shards {
		total += len(sh.Pairs)
	}
	out := make([]Pair, 0, total)
	for _, sh := range s.shards {
		out = append(out, sh.Pairs...)
	}
	SortPairs(out)
	return out
}

// radixCutoff is the length below which SortPairs' comparison sort wins:
// the radix sort pays for its scratch slice and counter tables however short
// the input is. Like the digit width (a byte), it was fixed by measurement —
// BenchmarkSortPairs times the three sizes that decided it;
// docs/ALGORITHMS.md, "Result order and the pair sort", has the numbers.
const radixCutoff = 64

// key packs a pair so that unsigned key order is lexicographic pair order
// for non-negative indexes.
func (p Pair) key() uint64 { return uint64(uint32(p.I))<<32 | uint64(uint32(p.J)) }

// SortPairs sorts a pair slice lexicographically in place. Indexes must be
// non-negative (they index a dataset). Every collect-mode join ends here,
// so it is a least-significant-digit counting sort straight over the pairs
// — O(len(ps)), against one scratch slice of the same length — rather than
// a comparison sort: one scan counts all eight byte digits of J and I (the
// counters, 16 KB, stay in the L1 cache), then each digit is scattered
// stably between ps and the scratch, back and forth. A digit on which all
// pairs agree is skipped, so a result over fewer than 2¹⁶ points takes four
// passes. Short inputs stay on a comparison sort.
func SortPairs(ps []Pair) {
	if len(ps) < radixCutoff {
		slices.SortFunc(ps, func(a, b Pair) int { return cmp.Compare(a.key(), b.key()) })
		return
	}
	// int counters: a uint32 would wrap on 2³² pairs sharing a digit.
	// Written out digit by digit: the compiler does not unroll the loop
	// over digits, and that costs half again the whole sort's time.
	var counts [8][256]int
	for _, p := range ps {
		k := p.key()
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := ps, make([]Pair, len(ps))
	for d := range counts {
		next, shift := &counts[d], 8*d
		if next[byte(ps[0].key()>>shift)] == len(ps) {
			continue // one bucket holds every pair
		}
		pos := 0
		for b, n := range next {
			next[b] = pos // where the bucket's next pair goes
			pos += n
		}
		for _, p := range src {
			b := byte(p.key() >> shift)
			dst[next[b]] = p
			next[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// Dedup removes adjacent duplicates from a sorted pair slice, returning the
// shortened slice.
func Dedup(ps []Pair) []Pair {
	if len(ps) == 0 {
		return ps
	}
	out := ps[:1]
	for _, p := range ps[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// Equal reports whether two sorted pair slices are identical.
func Equal(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff returns a human-readable summary of the difference between two
// sorted, deduped pair sets: pairs only in a (missing from b) and pairs only
// in b (spurious), truncated to a handful of examples each. Used by tests to
// explain oracle mismatches.
func Diff(a, b []Pair) string {
	var onlyA, onlyB []Pair
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i].Less(b[j]):
			onlyA = append(onlyA, a[i])
			i++
		default:
			onlyB = append(onlyB, b[j])
			j++
		}
	}
	onlyA = append(onlyA, a[i:]...)
	onlyB = append(onlyB, b[j:]...)
	trunc := func(ps []Pair) string {
		const max = 8
		s := ""
		for k, p := range ps {
			if k == max {
				return s + "…"
			}
			s += fmt.Sprintf("(%d,%d) ", p.I, p.J)
		}
		return s
	}
	return fmt.Sprintf("%d only in A: %s| %d only in B: %s", len(onlyA), trunc(onlyA), len(onlyB), trunc(onlyB))
}
