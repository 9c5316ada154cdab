package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTestCatalog(t *testing.T, dir string, opt Options) *Catalog {
	t.Helper()
	c, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCatalogLifecycleAndRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := openTestCatalog(t, dir, Options{})

	base := testDataset(t, 20, 3)
	if err := c.Put(ctx, "pts", base); err != nil {
		t.Fatal(err)
	}
	grown, err := c.Append(ctx, "pts", [][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != 22 {
		t.Fatalf("grown len = %d, want 22", grown.Len())
	}
	if base.Len() != 20 {
		t.Fatal("Append mutated the caller's dataset")
	}
	if _, err := c.Append(ctx, "pts", [][]float64{{1, 2}}); err == nil {
		t.Fatal("dims mismatch accepted")
	} else if !errors.As(err, &InputError{}) {
		t.Fatalf("dims mismatch error type: %v", err)
	}
	if _, err := c.Append(ctx, "nope", [][]float64{{1, 2, 3}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to missing: %v", err)
	}
	if c.WALBytes() == 0 {
		t.Fatal("WALBytes = 0 after writes")
	}

	// Hard kill: no Close, just reopen the directory.
	c2 := openTestCatalog(t, dir, Options{})
	got := c2.Datasets()
	if len(got) != 1 || got["pts"] == nil {
		t.Fatalf("recovered datasets = %v", got)
	}
	if !got["pts"].Equal(grown) {
		t.Fatalf("recovered %d points, want %d", got["pts"].Len(), grown.Len())
	}
	rec := c2.Recovery()
	if len(rec.Datasets) != 1 || rec.Datasets[0].Records != 2 || rec.Datasets[0].Points != 22 {
		t.Fatalf("recovery info = %+v", rec)
	}
}

func TestCatalogDeletePersists(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := openTestCatalog(t, dir, Options{})
	if err := c.Put(ctx, "a", testDataset(t, 5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "b", testDataset(t, 5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); !os.IsNotExist(err) {
		t.Fatal("deleted dataset directory still exists")
	}
	// Re-put after delete works and survives restart.
	if err := c.Put(ctx, "a", testDataset(t, 3, 4)); err != nil {
		t.Fatal(err)
	}
	c2 := openTestCatalog(t, dir, Options{})
	got := c2.Datasets()
	if len(got) != 2 || got["a"].Len() != 3 || got["a"].Dims() != 4 {
		t.Fatalf("after restart: %v", got)
	}
}

func TestCatalogTornWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := openTestCatalog(t, dir, Options{})
	if err := c.Put(ctx, "pts", testDataset(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "pts", [][]float64{{7, 7}}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Tear the tail: chop 5 bytes off the last record.
	walPath := filepath.Join(dir, "pts", walName)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCatalog(t, dir, Options{})
	rec := c2.Recovery()
	if len(rec.Datasets) != 1 || !rec.Datasets[0].TailTruncated {
		t.Fatalf("recovery = %+v, want tail truncated", rec)
	}
	if rec.TruncatedTails() != 1 {
		t.Fatalf("TruncatedTails = %d", rec.TruncatedTails())
	}
	// The valid prefix — the original put — survives.
	got := c2.Datasets()["pts"]
	if got == nil || got.Len() != 4 {
		t.Fatalf("recovered %v, want the 4-point put", got)
	}
	// The file was physically truncated: appends after recovery land
	// cleanly and the next restart sees no damage.
	if _, err := c2.Append(ctx, "pts", [][]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3 := openTestCatalog(t, dir, Options{})
	if rec := c3.Recovery(); rec.TruncatedTails() != 0 {
		t.Fatalf("second recovery still truncating: %+v", rec)
	}
	if got := c3.Datasets()["pts"]; got.Len() != 5 {
		t.Fatalf("after repair + append: %d points, want 5", got.Len())
	}
}

func TestCatalogQuarantinesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// Tiny threshold so the put compacts into a snapshot immediately.
	c := openTestCatalog(t, dir, Options{CompactBytes: 1})
	if err := c.Put(ctx, "bad", testDataset(t, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "good", testDataset(t, 6, 2)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Corrupt a data byte in bad's snapshot.
	snaps, err := filepath.Glob(filepath.Join(dir, "bad", "snapshot-*.sjds"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[snapshotHdrLen+3] ^= 0xff
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCatalog(t, dir, Options{})
	rec := c2.Recovery()
	if len(rec.Quarantined) != 1 || rec.Quarantined[0].Name != "bad" {
		t.Fatalf("quarantined = %+v", rec.Quarantined)
	}
	got := c2.Datasets()
	if len(got) != 1 || got["good"] == nil || got["good"].Len() != 6 {
		t.Fatalf("surviving datasets = %v", got)
	}
	// The quarantined directory is left for forensics.
	if _, err := os.Stat(snaps[0]); err != nil {
		t.Fatalf("quarantined snapshot removed: %v", err)
	}
}

func TestCatalogCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	var compactions, snapshots atomic.Int64
	opt := Options{
		CompactBytes: 2048,
		Hooks: Hooks{
			Compaction: func(time.Duration) { compactions.Add(1) },
			Snapshot:   func(time.Duration, int) { snapshots.Add(1) },
		},
	}
	c := openTestCatalog(t, dir, opt)
	if err := c.Put(ctx, "pts", testDataset(t, 10, 4)); err != nil {
		t.Fatal(err)
	}
	want := c.Datasets()["pts"]
	for i := 0; i < 50; i++ {
		var err error
		want, err = c.Append(ctx, "pts", [][]float64{{float64(i), 0, 0, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if compactions.Load() == 0 || snapshots.Load() == 0 {
		t.Fatalf("compactions=%d snapshots=%d, want > 0", compactions.Load(), snapshots.Load())
	}
	// After compaction the WAL is near-empty again.
	if wb := c.WALBytes(); wb > 2048+walHdrLen {
		t.Fatalf("WALBytes = %d after compaction, want small", wb)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "pts", "snapshot-*.sjds"))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files = %v, want exactly one generation", snaps)
	}
	// Restart recovers snapshot + residual WAL exactly.
	c.Close()
	c2 := openTestCatalog(t, dir, Options{})
	got := c2.Datasets()["pts"]
	if got == nil || !got.Equal(want) {
		t.Fatalf("recovered %v, want %d points (recovery: %+v)", got, want.Len(), c2.Recovery())
	}
}

func TestCatalogStaleSnapshotSwept(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := openTestCatalog(t, dir, Options{})
	if err := c.Put(ctx, "pts", testDataset(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Simulate a compaction that crashed after writing the next-gen
	// snapshot but before rotating the WAL (which still names gen 0).
	orphan := snapshotPath(filepath.Join(dir, "pts"), 1)
	f, err := os.Create(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, testDataset(t, 99, 2)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c2 := openTestCatalog(t, dir, Options{})
	if got := c2.Datasets()["pts"]; got == nil || got.Len() != 4 {
		t.Fatalf("recovered %v, want the gen-0 WAL state", got)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan snapshot not swept")
	}
}

func TestCatalogNameValidation(t *testing.T) {
	c := openTestCatalog(t, t.TempDir(), Options{})
	ctx := context.Background()
	ds := testDataset(t, 1, 1)
	for _, name := range []string{"", ".", "..", ".hidden", "a/b", "a\\b", "a b", "x\x00y"} {
		err := c.Put(ctx, name, ds)
		if err == nil {
			t.Errorf("name %q accepted", name)
			continue
		}
		if !errors.As(err, &InputError{}) {
			t.Errorf("name %q: error type %T", name, err)
		}
	}
	for _, name := range []string{"a", "A-1", "foo_bar.v2", "0"} {
		if err := c.Put(ctx, name, ds); err != nil {
			t.Errorf("name %q rejected: %v", name, err)
		}
	}
}

func TestCatalogSyncModes(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"always", Options{Sync: SyncAlways}},
		{"never", Options{Sync: SyncNever}},
		{"interval", Options{Sync: SyncInterval, SyncInterval: 5 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var fsyncs atomic.Int64
			tc.opt.Hooks.Fsync = func() { fsyncs.Add(1) }
			c := openTestCatalog(t, dir, tc.opt)
			if err := c.Put(ctx, "pts", testDataset(t, 3, 2)); err != nil {
				t.Fatal(err)
			}
			before := fsyncs.Load()
			if _, err := c.Append(ctx, "pts", [][]float64{{1, 1}}); err != nil {
				t.Fatal(err)
			}
			// The fsyncs the Append itself issued, before any flush.
			switch byAppend := fsyncs.Load() - before; tc.opt.Sync {
			case SyncAlways:
				if byAppend < 1 {
					t.Errorf("always: the append issued %d fsyncs, want ≥ 1", byAppend)
				}
			case SyncNever:
				if byAppend != 0 {
					t.Errorf("never: the append issued %d fsyncs, want 0", byAppend)
				}
			}
			if tc.opt.Sync == SyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for fsyncs.Load() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if fsyncs.Load() == 0 {
					t.Fatal("interval mode never fsynced")
				}
			}
			c.Close()
			c2 := openTestCatalog(t, dir, Options{})
			if got := c2.Datasets()["pts"]; got == nil || got.Len() != 4 {
				t.Fatalf("%s: recovered %v", tc.name, got)
			}
		})
	}
}

func TestCatalogConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := openTestCatalog(t, dir, Options{Sync: SyncNever, CompactBytes: 4096})
	const workers, per = 8, 25
	for w := 0; w < workers; w++ {
		if err := c.Put(ctx, fmt.Sprintf("set-%d", w%2), testDataset(t, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("set-%d", w%2)
			for i := 0; i < per; i++ {
				if _, err := c.Append(ctx, name, [][]float64{{float64(w), float64(i)}}); err != nil {
					errs <- err
					return
				}
				c.WALBytes()
				c.Datasets()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c.Close()
	c2 := openTestCatalog(t, dir, Options{})
	got := c2.Datasets()
	total := 0
	for _, ds := range got {
		total += ds.Len()
	}
	if want := 2 + workers*per; total != want {
		t.Fatalf("recovered %d points total, want %d", total, want)
	}
}

func TestCatalogClosedRejectsWrites(t *testing.T) {
	c := openTestCatalog(t, t.TempDir(), Options{})
	ctx := context.Background()
	if err := c.Put(ctx, "a", testDataset(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Put(ctx, "b", testDataset(t, 1, 1)); err == nil {
		t.Fatal("Put on closed catalog accepted")
	}
	if _, err := c.Append(ctx, "a", [][]float64{{1}}); err == nil {
		t.Fatal("Append on closed catalog accepted")
	}
}

func TestParseSync(t *testing.T) {
	for in, want := range map[string]SyncMode{"always": SyncAlways, "never": SyncNever, "100ms": SyncInterval} {
		mode, _, err := ParseSync(in)
		if err != nil || mode != want {
			t.Errorf("ParseSync(%q) = %v, %v", in, mode, err)
		}
	}
	for _, in := range []string{"", "sometimes", "-5s", "0s"} {
		if _, _, err := ParseSync(in); err == nil {
			t.Errorf("ParseSync(%q) accepted", in)
		}
	}
}

func TestCatalogPutLargeCompactsOnNextWrite(t *testing.T) {
	// A put bigger than the threshold compacts immediately after the
	// record lands; the WAL shrinks back to (almost) nothing.
	dir := t.TempDir()
	ctx := context.Background()
	c := openTestCatalog(t, dir, Options{CompactBytes: 1024})
	big := testDataset(t, 1000, 4) // 32 KB record
	if err := c.Put(ctx, "big", big); err != nil {
		t.Fatal(err)
	}
	if wb := c.WALBytes(); wb != walHdrLen {
		t.Fatalf("WALBytes = %d after oversized put, want %d (compacted)", wb, walHdrLen)
	}
	c2 := openTestCatalog(t, dir, Options{})
	if got := c2.Datasets()["big"]; got == nil || !got.Equal(big) {
		t.Fatalf("recovered %v", got)
	}
}
