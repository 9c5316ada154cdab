// Package pager simulates disk-resident point storage for the external join
// experiments: fixed-size pages of points, files of pages, and an LRU buffer
// pool through which every page access flows. Nothing actually touches the
// filesystem — the "disk" is a slab of memory — but every fetch that misses
// the pool is charged as a page read, so the harness reports the I/O counts
// a 1998 disk subsystem would have performed. (This is the hardware
// substitution recorded in DESIGN.md: we measure I/O operations rather than
// timing a period disk.)
package pager

import (
	"container/list"
	"fmt"

	"simjoin/internal/stats"
)

// DefaultPageBytes is the simulated page size used throughout the
// evaluation.
const DefaultPageBytes = 4096

// Store owns a set of simulated files and the I/O counters they charge.
type Store struct {
	pageBytes int
	counters  *stats.Counters
	files     []*File
}

// NewStore returns a store with the given page size in bytes (0 selects
// DefaultPageBytes). I/O is charged to counters, which may be nil for an
// uninstrumented store.
func NewStore(pageBytes int, counters *stats.Counters) *Store {
	if pageBytes <= 0 {
		pageBytes = DefaultPageBytes
	}
	if pageBytes < 16 {
		panic(fmt.Sprintf("pager: page size %d too small for even one coordinate", pageBytes))
	}
	if counters == nil {
		counters = &stats.Counters{}
	}
	return &Store{pageBytes: pageBytes, counters: counters}
}

// PageBytes returns the store's page size.
func (s *Store) PageBytes() int { return s.pageBytes }

// Counters returns the store's I/O counters.
func (s *Store) Counters() *stats.Counters { return s.counters }

// PointsPerPage returns how many d-dimensional float64 points fit in one
// page. It panics if a single point exceeds the page, which no layout in
// this library supports.
func (s *Store) PointsPerPage(dims int) int {
	pp := s.pageBytes / (8 * dims)
	if pp < 1 {
		panic(fmt.Sprintf("pager: %d-dim point does not fit in a %d-byte page", dims, s.pageBytes))
	}
	return pp
}

// File is a simulated disk file holding d-dimensional points in fixed-size
// pages. Points are appended through a one-page write buffer; every full
// page costs one page write. Reads must go through a Pool so they are
// counted.
type File struct {
	store   *Store
	id      int
	dims    int
	perPage int
	pages   [][]float64 // finalized pages, each ≤ perPage*dims floats
	buf     []float64   // current write buffer (not yet on "disk")
	n       int         // total points appended
}

// CreateFile allocates a new empty file of d-dimensional points.
func (s *Store) CreateFile(dims int) *File {
	if dims < 1 {
		panic(fmt.Sprintf("pager: invalid dimensionality %d", dims))
	}
	f := &File{store: s, id: len(s.files), dims: dims, perPage: s.PointsPerPage(dims)}
	s.files = append(s.files, f)
	return f
}

// Dims returns the file's point dimensionality.
func (f *File) Dims() int { return f.dims }

// Len returns the number of points appended so far (including buffered
// ones).
func (f *File) Len() int { return f.n }

// PointsPerPage returns the file's page fan-out.
func (f *File) PointsPerPage() int { return f.perPage }

// NumPages returns the number of finalized pages. Call Flush first if the
// write buffer may be non-empty.
func (f *File) NumPages() int { return len(f.pages) }

// Append adds a point to the file, writing a page to "disk" whenever the
// buffer fills.
func (f *File) Append(p []float64) {
	if len(p) != f.dims {
		panic(fmt.Sprintf("pager: appending %d-dim point to %d-dim file", len(p), f.dims))
	}
	f.buf = append(f.buf, p...)
	f.n++
	if len(f.buf) == f.perPage*f.dims {
		f.flushBuf()
	}
}

// Flush forces any buffered points onto a final (possibly partial) page.
func (f *File) Flush() {
	if len(f.buf) > 0 {
		f.flushBuf()
	}
}

func (f *File) flushBuf() {
	page := make([]float64, len(f.buf))
	copy(page, f.buf)
	f.pages = append(f.pages, page)
	f.buf = f.buf[:0]
	f.store.counters.AddPageWrites(1)
}

// pageKey identifies a page across all files of one store.
type pageKey struct {
	file, page int
}

// Pool is an LRU buffer pool of pages. All page reads flow through Fetch;
// a miss charges one page read to the store's counters and may evict the
// least-recently-used resident page. The pool is not safe for concurrent
// use — the external algorithms are single-threaded by design, mirroring
// the paper's setting.
type Pool struct {
	store    *Store
	capacity int
	lru      *list.List // front = most recent; values are pageKey
	resident map[pageKey]*list.Element

	hits, misses, evictions int64
}

// NewPool returns a pool caching up to capacity pages. Capacity must be at
// least 1.
func NewPool(store *Store, capacity int) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("pager: pool capacity %d < 1", capacity))
	}
	return &Pool{
		store:    store,
		capacity: capacity,
		lru:      list.New(),
		resident: make(map[pageKey]*list.Element, capacity),
	}
}

// Capacity returns the pool's page budget.
func (p *Pool) Capacity() int { return p.capacity }

// Fetch returns page number page of file f, reading it from "disk" (and
// charging a page read) unless it is resident. The returned slice is the
// page's point data laid out row-major; callers must not modify it.
func (p *Pool) Fetch(f *File, page int) []float64 {
	if page < 0 || page >= len(f.pages) {
		panic(fmt.Sprintf("pager: page %d out of range [0, %d)", page, len(f.pages)))
	}
	key := pageKey{file: f.id, page: page}
	if el, ok := p.resident[key]; ok {
		p.lru.MoveToFront(el)
		p.hits++
		return f.pages[page]
	}
	p.misses++
	p.store.counters.AddPageReads(1)
	if p.lru.Len() == p.capacity {
		oldest := p.lru.Back()
		p.lru.Remove(oldest)
		delete(p.resident, oldest.Value.(pageKey))
		p.evictions++
	}
	p.resident[key] = p.lru.PushFront(key)
	return f.pages[page]
}

// Resident reports whether the given page is currently cached. No scan
// reads it; it exposes the LRU residency that TestPoolLRUSemantics,
// TestPoolDrop and TestPoolMultipleFilesDistinctKeys pin.
func (p *Pool) Resident(f *File, page int) bool {
	_, ok := p.resident[pageKey{file: f.id, page: page}]
	return ok
}

// Stats returns the pool's hit, miss, and eviction totals.
func (p *Pool) Stats() (hits, misses, evictions int64) {
	return p.hits, p.misses, p.evictions
}

// Drop empties the pool without charging I/O, as between experiment phases.
func (p *Pool) Drop() {
	p.lru.Init()
	for k := range p.resident {
		delete(p.resident, k)
	}
}

// PagePoints returns the number of points on page `page` of file f.
func (f *File) PagePoints(page int) int {
	return len(f.pages[page]) / f.dims
}

// PagePoint returns point i of page `page` from previously fetched page
// data (as returned by Pool.Fetch).
func PagePoint(pageData []float64, dims, i int) []float64 {
	return pageData[i*dims : (i+1)*dims : (i+1)*dims]
}
