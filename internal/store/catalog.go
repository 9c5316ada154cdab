package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/obsv/trace"
)

// Catalog is the durable dataset registry: one subdirectory per dataset,
// replayed on Open, mutated through Put/Append/Delete. All methods are
// safe for concurrent use; mutations to one dataset serialize on its own
// lock, so independent datasets never contend.
//
// Datasets handed to Put or returned by Append/Datasets are shared, not
// copied: callers must treat them as immutable (the same append-only
// snapshot discipline simjoind's query path already relies on).
type Catalog struct {
	dir string
	opt Options

	mu   sync.Mutex
	sets map[string]*dsStore

	walBytes atomic.Int64 // total across datasets, for gauges/healthz
	rec      RecoveryInfo

	stopFlush chan struct{} // closes the interval-fsync loop
	flushDone chan struct{}
	closed    bool
}

// dsStore is one dataset's durable state. mu serializes every mutation
// (WAL append, compaction, delete) for that dataset.
type dsStore struct {
	mu       sync.Mutex
	name     string
	dir      string
	gen      uint64
	cur      *dataset.Dataset // latest durable state; nil once deleted
	wal      *os.File
	walBytes int64
	deleted  bool
	dirty    atomic.Bool // has unsynced WAL writes (interval mode)
}

// DatasetRecovery describes one dataset's replay on Open.
type DatasetRecovery struct {
	Name          string `json:"name"`
	Points        int    `json:"points"`
	Dims          int    `json:"dims"`
	Records       int    `json:"records"` // WAL records replayed
	WALBytes      int64  `json:"wal_bytes"`
	TailTruncated bool   `json:"tail_truncated"` // a torn WAL tail was dropped
}

// Quarantined names a dataset directory Open could not recover (for
// example a snapshot with a bad checksum). Its files are left untouched
// for forensics; the dataset is not served.
type Quarantined struct {
	Name  string `json:"name"`
	Error string `json:"error"`
}

// RecoveryInfo summarizes what Open found on disk.
type RecoveryInfo struct {
	Datasets    []DatasetRecovery `json:"datasets"`
	Quarantined []Quarantined     `json:"quarantined,omitempty"`
}

// Records returns the total WAL records replayed across datasets.
func (r RecoveryInfo) Records() int {
	n := 0
	for _, d := range r.Datasets {
		n += d.Records
	}
	return n
}

// TruncatedTails returns how many datasets lost a torn WAL tail.
func (r RecoveryInfo) TruncatedTails() int {
	n := 0
	for _, d := range r.Datasets {
		if d.TailTruncated {
			n++
		}
	}
	return n
}

// Open recovers (or creates) a catalog rooted at dir. Every dataset
// subdirectory is replayed — snapshot first, then the WAL's valid
// prefix, truncating a torn tail in place. Directories that cannot be
// recovered are quarantined in the RecoveryInfo rather than failing the
// whole catalog. In interval sync mode Open also starts the background
// flush loop; Close stops it.
func Open(dir string, opt Options) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	c := &Catalog{dir: dir, opt: opt, sets: make(map[string]*dsStore)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	for _, ent := range entries {
		if !ent.IsDir() || ValidateName(ent.Name()) != nil {
			continue
		}
		name := ent.Name()
		ds, rec, err := c.recoverDataset(name)
		if err != nil {
			c.rec.Quarantined = append(c.rec.Quarantined, Quarantined{Name: name, Error: err.Error()})
			continue
		}
		if ds == nil {
			continue // replay ended deleted; directory removed
		}
		c.sets[name] = ds
		c.walBytes.Add(ds.walBytes)
		c.rec.Datasets = append(c.rec.Datasets, rec)
	}
	sort.Slice(c.rec.Datasets, func(i, j int) bool { return c.rec.Datasets[i].Name < c.rec.Datasets[j].Name })
	if opt.Sync == SyncInterval {
		c.stopFlush = make(chan struct{})
		c.flushDone = make(chan struct{})
		go c.flushLoop()
	}
	return c, nil
}

// recoverDataset replays one dataset directory. A nil dsStore with nil
// error means the dataset's final state is "deleted" and its directory
// was removed.
func (c *Catalog) recoverDataset(name string) (*dsStore, DatasetRecovery, error) {
	dsDir := filepath.Join(c.dir, name)
	walPath := filepath.Join(dsDir, walName)

	st, err := os.Stat(walPath)
	switch {
	case os.IsNotExist(err) || (err == nil && st.Size() == 0):
		// Crash between directory creation and the first WAL header: if a
		// snapshot exists the dataset is still whole, otherwise nothing
		// durable ever landed here and the leftovers go.
		gen, ok := highestSnapshotGen(dsDir)
		if !ok {
			os.RemoveAll(dsDir)
			return nil, DatasetRecovery{}, nil
		}
		base, err := readSnapshotFile(snapshotPath(dsDir, gen))
		if err != nil {
			return nil, DatasetRecovery{}, err
		}
		wal, err := createWALFile(walPath, gen, c.opt.Hooks)
		if err != nil {
			return nil, DatasetRecovery{}, err
		}
		removeStaleSnapshots(dsDir, gen)
		d := &dsStore{name: name, dir: dsDir, gen: gen, cur: base, wal: wal, walBytes: walHdrLen}
		return d, DatasetRecovery{Name: name, Points: base.Len(), Dims: base.Dims(), WALBytes: walHdrLen}, nil
	case err != nil:
		return nil, DatasetRecovery{}, err
	}

	// Peek at the header to learn which snapshot the log applies to.
	hdr := make([]byte, walHdrLen)
	f, err := os.Open(walPath)
	if err != nil {
		return nil, DatasetRecovery{}, err
	}
	n, _ := f.Read(hdr)
	f.Close()
	gen, err := decodeWALHeader(hdr[:n])
	if err != nil {
		return nil, DatasetRecovery{}, err
	}
	var base *dataset.Dataset
	if _, err := os.Stat(snapshotPath(dsDir, gen)); err == nil {
		base, err = readSnapshotFile(snapshotPath(dsDir, gen))
		if err != nil {
			return nil, DatasetRecovery{}, err
		}
	}
	res, err := loadWALFile(walPath, base)
	if err != nil {
		return nil, DatasetRecovery{}, err
	}
	if res.state == nil {
		// The last durable word on this dataset is "deleted".
		os.RemoveAll(dsDir)
		return nil, DatasetRecovery{}, nil
	}
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, DatasetRecovery{}, err
	}
	removeStaleSnapshots(dsDir, gen)
	d := &dsStore{name: name, dir: dsDir, gen: gen, cur: res.state, wal: wal, walBytes: res.validEnd}
	rec := DatasetRecovery{
		Name: name, Points: res.state.Len(), Dims: res.state.Dims(),
		Records: res.records, WALBytes: res.validEnd, TailTruncated: res.truncated,
	}
	return d, rec, nil
}

func snapshotPath(dsDir string, gen uint64) string {
	return filepath.Join(dsDir, fmt.Sprintf("snapshot-%08x.sjds", gen))
}

// highestSnapshotGen scans dsDir for snapshot files and returns the
// largest generation found.
func highestSnapshotGen(dsDir string) (uint64, bool) {
	gens := snapshotGens(dsDir)
	if len(gens) == 0 {
		return 0, false
	}
	return gens[len(gens)-1], true
}

func snapshotGens(dsDir string) []uint64 {
	ents, err := os.ReadDir(dsDir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, "snapshot-") || !strings.HasSuffix(n, ".sjds") {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "snapshot-"), ".sjds"), 16, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// removeStaleSnapshots deletes snapshot files from generations other
// than keep — leftovers of a compaction that crashed mid-rotation.
func removeStaleSnapshots(dsDir string, keep uint64) {
	for _, g := range snapshotGens(dsDir) {
		if g != keep {
			os.Remove(snapshotPath(dsDir, g))
		}
	}
}

func readSnapshotFile(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return ds, nil
}

// Recovery returns what Open found on disk.
func (c *Catalog) Recovery() RecoveryInfo { return c.rec }

// WALBytes returns the current total WAL size across datasets.
func (c *Catalog) WALBytes() int64 { return c.walBytes.Load() }

// DatasetWALBytes returns one dataset's current WAL size, and whether
// the dataset exists.
func (c *Catalog) DatasetWALBytes(name string) (int64, bool) {
	d, ok := c.get(name)
	if !ok {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deleted {
		return 0, false
	}
	return d.walBytes, true
}

// Dir returns the catalog's root directory.
func (c *Catalog) Dir() string { return c.dir }

// Datasets returns the recovered/current dataset for every live name.
func (c *Catalog) Datasets() map[string]*dataset.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*dataset.Dataset, len(c.sets))
	for name, d := range c.sets {
		d.mu.Lock()
		if !d.deleted {
			out[name] = d.cur
		}
		d.mu.Unlock()
	}
	return out
}

// Put durably replaces (or creates) the named dataset with ds.
func (c *Catalog) Put(ctx context.Context, name string, ds *dataset.Dataset) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	sp := trace.FromContext(ctx).Child("store.put")
	defer sp.End()
	sp.SetAttr("dataset", name)
	sp.AddCounter("points", int64(ds.Len()))
	for {
		d, err := c.getOrCreate(name)
		if err != nil {
			return err
		}
		d.mu.Lock()
		if d.deleted {
			d.mu.Unlock()
			continue // lost a race with Delete; re-create the directory
		}
		err = c.appendRecord(sp, d, putPayload(ds))
		if err == nil {
			d.cur = ds
			c.maybeCompact(sp, d)
		}
		d.mu.Unlock()
		return err
	}
}

// Append durably appends pts to the named dataset and returns the grown
// dataset: a new snapshot (dataset.Grow) that shares storage with the
// previous one, which stays valid and unchanged for in-flight readers.
func (c *Catalog) Append(ctx context.Context, name string, pts [][]float64) (*dataset.Dataset, error) {
	sp := trace.FromContext(ctx).Child("store.append")
	defer sp.End()
	sp.SetAttr("dataset", name)
	sp.AddCounter("points", int64(len(pts)))
	d, ok := c.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	dims := d.cur.Dims()
	flat := make([]float64, 0, len(pts)*dims)
	for i, p := range pts {
		if len(p) != dims {
			return nil, inputErrf("point %d has %d dims, dataset has %d", i, len(p), dims)
		}
		flat = append(flat, p...)
	}
	if err := c.appendRecord(sp, d, appendPayload(dims, flat)); err != nil {
		return nil, err
	}
	grown := d.cur.Grow(flat)
	d.cur = grown
	c.maybeCompact(sp, d)
	return grown, nil
}

// Delete durably removes the named dataset: a delete record makes the
// intent crash-safe, then the directory goes away.
func (c *Catalog) Delete(ctx context.Context, name string) error {
	sp := trace.FromContext(ctx).Child("store.delete")
	defer sp.End()
	sp.SetAttr("dataset", name)
	d, ok := c.get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deleted {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := c.appendRecord(sp, d, deletePayload()); err != nil {
		return err
	}
	d.deleted = true
	d.cur = nil
	d.wal.Close()
	d.wal = nil
	c.walBytes.Add(-d.walBytes)
	d.walBytes = 0
	c.mu.Lock()
	if c.sets[name] == d {
		delete(c.sets, name)
	}
	c.mu.Unlock()
	if err := os.RemoveAll(d.dir); err != nil {
		return fmt.Errorf("store: removing %s: %w", d.dir, err)
	}
	return nil
}

// get fetches a live dataset store.
func (c *Catalog) get(name string) (*dsStore, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.sets[name]
	return d, ok
}

// getOrCreate returns the named dataset store, materializing its
// directory and an empty generation-0 WAL on first use.
func (c *Catalog) getOrCreate(name string) (*dsStore, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("store: catalog is closed")
	}
	if d, ok := c.sets[name]; ok {
		return d, nil
	}
	dsDir := filepath.Join(c.dir, name)
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dsDir, err)
	}
	wal, err := createWALFile(filepath.Join(dsDir, walName), 0, c.opt.Hooks)
	if err != nil {
		return nil, err
	}
	d := &dsStore{name: name, dir: dsDir, wal: wal, walBytes: walHdrLen}
	c.sets[name] = d
	c.walBytes.Add(walHdrLen)
	return d, nil
}

// appendRecord writes one framed record to d's WAL and applies the sync
// policy. Caller holds d.mu.
func (c *Catalog) appendRecord(sp *trace.Span, d *dsStore, payload []byte) error {
	child := sp.Child("store.wal.append")
	defer child.End()
	rec := encodeRecord(payload)
	start := time.Now()
	if _, err := d.wal.Write(rec); err != nil {
		return fmt.Errorf("store: appending to %s WAL: %w", d.name, err)
	}
	switch c.opt.Sync {
	case SyncAlways:
		if err := fsync(d.wal, c.opt.Hooks); err != nil {
			return fmt.Errorf("store: syncing %s WAL: %w", d.name, err)
		}
	case SyncInterval:
		d.dirty.Store(true)
	}
	d.walBytes += int64(len(rec))
	c.walBytes.Add(int64(len(rec)))
	child.AddCounter("bytes", int64(len(rec)))
	if c.opt.Hooks.WALAppend != nil {
		c.opt.Hooks.WALAppend(time.Since(start), len(rec))
	}
	return nil
}

// flushLoop is the interval-mode background fsync: every period it syncs
// each dataset WAL that saw writes since the last pass.
func (c *Catalog) flushLoop() {
	defer close(c.flushDone)
	t := time.NewTicker(c.opt.syncInterval())
	defer t.Stop()
	for {
		select {
		case <-c.stopFlush:
			c.flushDirty()
			return
		case <-t.C:
			c.flushDirty()
		}
	}
}

func (c *Catalog) flushDirty() {
	c.mu.Lock()
	sets := make([]*dsStore, 0, len(c.sets))
	for _, d := range c.sets {
		sets = append(sets, d)
	}
	c.mu.Unlock()
	for _, d := range sets {
		d.mu.Lock()
		if !d.deleted && d.dirty.Swap(false) {
			_ = fsync(d.wal, c.opt.Hooks)
		}
		d.mu.Unlock()
	}
}

// Close stops the flush loop, syncs every WAL, and closes the files.
// The catalog rejects mutations afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	sets := make([]*dsStore, 0, len(c.sets))
	for _, d := range c.sets {
		sets = append(sets, d)
	}
	c.mu.Unlock()
	if c.stopFlush != nil {
		close(c.stopFlush)
		<-c.flushDone
	}
	var first error
	for _, d := range sets {
		d.mu.Lock()
		if !d.deleted && d.wal != nil {
			if err := fsync(d.wal, c.opt.Hooks); err != nil && first == nil {
				first = err
			}
			if err := d.wal.Close(); err != nil && first == nil {
				first = err
			}
			d.deleted = true // reject further writes through stale handles
			d.wal = nil
		}
		d.mu.Unlock()
	}
	return first
}
