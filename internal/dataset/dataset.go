// Package dataset provides the in-memory point-set container shared by every
// join algorithm, plus CSV and binary codecs and simple preprocessing
// (normalization, shuffling, sampling).
//
// Points are stored row-major in a single flat []float64, so Point(i) is a
// zero-allocation slice view and iteration is cache-friendly regardless of
// dimensionality — the access pattern the ε-kdB tree's leaf sweeps depend
// on.
package dataset

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"simjoin/internal/vec"
)

// Dataset is a mutable, append-only collection of d-dimensional points.
// The zero value is unusable; construct with New or FromPoints.
type Dataset struct {
	dims int
	data []float64 // row-major: point i occupies data[i*dims : (i+1)*dims]
	// buf, when non-nil, is the backing store this snapshot shares with
	// the other snapshots Grow made from the same line; data is a prefix
	// of buf.data.
	buf *growBuf
}

// growBuf is the storage a line of Grow snapshots shares. Every snapshot
// is a prefix of data; hi is the longest prefix any snapshot has been
// given, in floats. Nothing below hi is ever written again, and only the
// Grow that claims [hi, hi+k) by compare-and-swap writes there, so two
// writers growing the same snapshot cannot both extend in place.
type growBuf struct {
	data []float64 // full capacity
	hi   atomic.Int64
}

// New returns an empty dataset of the given dimensionality with capacity for
// capHint points (0 for no hint). It panics if dims < 1.
func New(dims, capHint int) *Dataset {
	if dims < 1 {
		panic(fmt.Sprintf("dataset: invalid dimensionality %d", dims))
	}
	if capHint < 0 {
		capHint = 0
	}
	return &Dataset{dims: dims, data: make([]float64, 0, capHint*dims)}
}

// FromPoints builds a dataset by copying the given points. All points must
// share one dimensionality; it panics otherwise (mixing dimensionalities is
// always a caller bug).
func FromPoints(pts [][]float64) *Dataset {
	if len(pts) == 0 {
		panic("dataset: FromPoints of empty slice (dimensionality unknown)")
	}
	ds := New(len(pts[0]), len(pts))
	for _, p := range pts {
		ds.Append(p)
	}
	return ds
}

// FromFlat wraps an existing row-major buffer without copying. len(flat)
// must be a multiple of dims.
func FromFlat(dims int, flat []float64) *Dataset {
	if dims < 1 {
		panic(fmt.Sprintf("dataset: invalid dimensionality %d", dims))
	}
	if len(flat)%dims != 0 {
		panic(fmt.Sprintf("dataset: flat length %d not a multiple of dims %d", len(flat), dims))
	}
	return &Dataset{dims: dims, data: flat}
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.data) / d.dims }

// Dims returns the dimensionality.
func (d *Dataset) Dims() int { return d.dims }

// Point returns a view of point i. The slice aliases the dataset's storage:
// mutations are visible, and the view is invalidated by Append.
func (d *Dataset) Point(i int) []float64 {
	return d.data[i*d.dims : (i+1)*d.dims : (i+1)*d.dims]
}

// Append copies p into the dataset. It panics on dimensionality mismatch.
// On a snapshot from Grow it reallocates (snapshots have no spare
// capacity) and leaves the shared buffer, so no other snapshot changes.
func (d *Dataset) Append(p []float64) {
	if len(p) != d.dims {
		panic(fmt.Sprintf("dataset: appending %d-dim point to %d-dim dataset", len(p), d.dims))
	}
	d.data = append(d.data, p...)
	d.buf = nil
}

// AppendFlat bulk-copies points stored row-major in flat — one copy for
// any number of points, where per-point Append would revalidate and grow
// k times. len(flat) must be a multiple of dims; it panics otherwise.
func (d *Dataset) AppendFlat(flat []float64) {
	d.checkFlat(flat)
	d.data = append(d.data, flat...)
	d.buf = nil
}

func (d *Dataset) checkFlat(flat []float64) {
	if len(flat)%d.dims != 0 {
		panic(fmt.Sprintf("dataset: appending %d floats to %d-dim dataset", len(flat), d.dims))
	}
}

// Grow returns a new snapshot holding d's points followed by the points
// stored row-major in flat, and leaves d unchanged. Snapshots of one line
// share a backing buffer: growing the newest snapshot writes only past
// every length already handed out and copies nothing old, and a full
// buffer is replaced by one a constant factor larger, so a run of Grows
// costs O(points added) amortised. Growing an older snapshot (one a later
// Grow has already extended) copies, so it never overwrites what the
// newer snapshot sees. Every snapshot has cap == len, so Append on one
// reallocates instead of writing into shared storage. len(flat) must be a
// multiple of dims; it panics otherwise.
func (d *Dataset) Grow(flat []float64) *Dataset {
	d.checkFlat(flat)
	n, k := len(d.data), len(flat)
	if b := d.buf; b != nil && n+k <= len(b.data) && b.hi.CompareAndSwap(int64(n), int64(n+k)) {
		copy(b.data[n:n+k], flat)
		return &Dataset{dims: d.dims, data: b.data[: n+k : n+k], buf: b}
	}
	// A new buffer, sized by append's growth policy: double while small,
	// about 1.25× once large, which keeps a large dataset's spare room and
	// its copy-time peak (old + new buffer) small.
	data := append(d.data[:n:n], flat...)
	b := &growBuf{data: data[:cap(data)]}
	b.hi.Store(int64(n + k))
	return &Dataset{dims: d.dims, data: data[: n+k : n+k], buf: b}
}

// Flat returns the underlying row-major buffer. It aliases the dataset.
func (d *Dataset) Flat() []float64 { return d.data }

// FlatView returns the dataset's kernel view: the flat buffer plus its
// dimensionality, in the shape the vec kernels consume. It aliases the
// dataset and is invalidated (like Point views) by Append.
func (d *Dataset) FlatView() vec.Flat {
	return vec.Flat{Dims: d.dims, Data: d.data}
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{dims: d.dims, data: make([]float64, len(d.data))}
	copy(c.data, d.data)
	return c
}

// Bounds returns the bounding box of all points. It panics on an empty
// dataset.
func (d *Dataset) Bounds() vec.Box {
	return vec.BoundingBox(d.Len(), d.Point)
}

// Subset returns a new dataset holding copies of the points whose indexes
// are listed in idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := New(d.dims, len(idx))
	for _, i := range idx {
		s.Append(d.Point(i))
	}
	return s
}

// Head returns a new dataset holding copies of the first n points (all of
// them if n exceeds Len).
func (d *Dataset) Head(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	s := New(d.dims, n)
	s.data = append(s.data, d.data[:n*d.dims]...)
	return s
}

// Shuffle permutes the points in place using the given seed, so that sorted
// or generator-ordered inputs do not bias insertion-order-sensitive
// structures.
func (d *Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := d.Len()
	tmp := make([]float64, d.dims)
	rng.Shuffle(n, func(i, j int) {
		pi, pj := d.Point(i), d.Point(j)
		copy(tmp, pi)
		copy(pi, pj)
		copy(pj, tmp)
	})
}

// Normalize rescales every dimension in place to [0, 1] and returns the
// original bounds, so callers can map distances back. Degenerate dimensions
// (zero extent) map to 0.5.
func (d *Dataset) Normalize() vec.Box {
	b := d.Bounds()
	n := d.Len()
	for i := 0; i < n; i++ {
		p := d.Point(i)
		for k := 0; k < d.dims; k++ {
			ext := b.Hi[k] - b.Lo[k]
			if ext == 0 {
				p[k] = 0.5
			} else {
				p[k] = (p[k] - b.Lo[k]) / ext
			}
		}
	}
	return b
}

// Equal reports whether two datasets have identical dimensionality, length
// and coordinates.
func (d *Dataset) Equal(o *Dataset) bool {
	if d.dims != o.dims || len(d.data) != len(o.data) {
		return false
	}
	for i, v := range d.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// MemoryBytes returns the approximate heap footprint of the point storage.
func (d *Dataset) MemoryBytes() int { return cap(d.data) * 8 }
