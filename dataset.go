package simjoin

import (
	"io"
	"sync/atomic"

	"simjoin/internal/dataset"
)

// Dataset is an immutable-by-convention collection of d-dimensional points
// used as join input. Construct with FromPoints, NewDataset, or Load.
type Dataset struct {
	ds *dataset.Dataset
	// sk, when non-nil, is the dataset's resident join-size sketch:
	// AlgorithmAuto plans from it instead of running a fresh sample join.
	// See EnableSketch / AttachSketch.
	sk *SizeSketch
	// trees is the last one-shot ε-kdB build a join made over this
	// dataset, kept for the next join that asks for the same one (see
	// inputs.trees); nil until then and after an Append.
	trees atomic.Pointer[builtTrees]
}

// NewDataset returns an empty dataset of the given dimensionality. It
// panics if dims < 1.
func NewDataset(dims int) *Dataset {
	return &Dataset{ds: dataset.New(dims, 0)}
}

// FromPoints builds a dataset by copying the given points (all of one
// dimensionality; panics otherwise or when empty).
func FromPoints(pts [][]float64) *Dataset {
	return &Dataset{ds: dataset.FromPoints(pts)}
}

// Append copies point p into the dataset. It panics on dimensionality
// mismatch. When a sketch is attached it observes the point too, so the
// resident estimate keeps tracking the data.
func (d *Dataset) Append(p []float64) {
	d.ds.Append(p)
	d.trees.Store(nil)
	if d.sk != nil {
		d.sk.Observe(p)
	}
}

// EnableSketch builds a join-size sketch over the dataset's current
// points (once; repeated calls return the existing sketch) and keeps it
// attached: AlgorithmAuto then plans from the sketch in O(1) instead of
// brute-force joining a fresh subsample, and later Appends feed it
// incrementally. See docs/ESTIMATION.md.
func (d *Dataset) EnableSketch() *SizeSketch {
	if d.sk == nil {
		d.sk = SketchOf(d)
	}
	return d.sk
}

// Sketch returns the attached join-size sketch, or nil when none is
// attached.
func (d *Dataset) Sketch() *SizeSketch { return d.sk }

// AttachSketch adopts an externally maintained sketch — the serving
// layer's pattern, where one long-lived sketch outlives each
// append-only dataset snapshot. The caller owns keeping the sketch in
// step with the data; attach before sharing the Dataset across
// goroutines.
func (d *Dataset) AttachSketch(s *SizeSketch) { d.sk = s }

// Len returns the number of points.
func (d *Dataset) Len() int { return d.ds.Len() }

// Dims returns the dimensionality.
func (d *Dataset) Dims() int { return d.ds.Dims() }

// Point returns a read-only view of point i; the slice aliases internal
// storage and must not be modified.
func (d *Dataset) Point(i int) []float64 { return d.ds.Point(i) }

// Load reads a dataset from path: ".csv" files as comma-separated rows
// (blank lines and '#' comments skipped), anything else in the library's
// binary format.
func Load(path string) (*Dataset, error) {
	ds, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// Save writes the dataset to path, choosing CSV or binary by extension as
// in Load.
func (d *Dataset) Save(path string) error { return d.ds.SaveFile(path) }

// WriteCSV writes the dataset as CSV rows.
func (d *Dataset) WriteCSV(w io.Writer) error { return d.ds.WriteCSV(w) }

// ReadCSV parses a dataset from CSV rows.
func ReadCSV(r io.Reader) (*Dataset, error) {
	ds, err := dataset.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// internal exposes the underlying container to the package.
func (d *Dataset) internal() *dataset.Dataset { return d.ds }

// Internal returns the underlying container. It exists for sibling
// packages inside this module (simjoind's storage wiring); importers
// outside the module cannot name its type.
func (d *Dataset) Internal() *dataset.Dataset { return d.ds }

// WrapDataset adopts an internal container without copying, the inverse
// of Internal. Module-internal, like Internal.
func WrapDataset(ds *dataset.Dataset) *Dataset { return &Dataset{ds: ds} }
