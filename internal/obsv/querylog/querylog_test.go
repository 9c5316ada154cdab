package querylog

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func rec(dataset string, elapsed time.Duration, est, actual int64) Record {
	return Record{
		Kind: "selfjoin", Dataset: dataset,
		EstimatedPairs: est, ActualPairs: actual,
		ElapsedNS: elapsed.Nanoseconds(),
		Outcome:   OutcomeOK,
	}
}

func TestAddClassifies(t *testing.T) {
	l := New(16)
	cases := []struct {
		name               string
		r                  Record
		slow, mispredicted bool
	}{
		{"fast accurate", rec("a", time.Millisecond, 100, 95), false, false},
		{"slow", rec("a", time.Second, 100, 95), true, false},
		{"over-estimate 20x", rec("a", time.Millisecond, 2000, 100), false, true},
		{"under-estimate 20x", rec("a", time.Millisecond, 100, 2000), false, true},
		{"exactly 10x is fine", rec("a", time.Millisecond, 1000, 100), false, false},
		{"no estimate", rec("a", time.Millisecond, -1, 1000000), false, false},
		{"zero actual clamps", rec("a", time.Millisecond, 5, 0), false, false},
		{"zero actual big estimate", rec("a", time.Millisecond, 50, 0), false, true},
	}
	for _, tc := range cases {
		got := l.Add(tc.r)
		if got.Slow != tc.slow || got.Mispredicted != tc.mispredicted {
			t.Errorf("%s: slow=%v mispredicted=%v, want %v/%v",
				tc.name, got.Slow, got.Mispredicted, tc.slow, tc.mispredicted)
		}
		if got.Pinned != (tc.slow || tc.mispredicted) {
			t.Errorf("%s: pinned=%v inconsistent with slow/mispredicted", tc.name, got.Pinned)
		}
		if got.Seq == 0 || got.Time.IsZero() {
			t.Errorf("%s: Add did not assign seq/time: %+v", tc.name, got)
		}
	}
}

// TestPriorityRetention is the retention contract: a flood of ordinary
// records evicts other ordinary records but cannot evict pinned ones.
func TestPriorityRetention(t *testing.T) {
	l := New(8) // pinned ring: max(8/4, 8) = 8
	pinned := l.Add(rec("important", time.Second, -1, 0))
	if !pinned.Pinned {
		t.Fatal("slow record not pinned")
	}
	for i := 0; i < 100; i++ {
		l.Add(rec(fmt.Sprintf("noise%d", i), time.Millisecond, -1, 0))
	}
	got := l.Snapshot(Filter{Dataset: "important"})
	if len(got) != 1 || got[0].Seq != pinned.Seq {
		t.Fatalf("pinned record evicted by ordinary flood: %+v", got)
	}
	// Ordinary retention is still bounded at the ring capacity.
	all := l.Snapshot(Filter{})
	if len(all) != 9 { // 8 ordinary + 1 pinned
		t.Fatalf("retained %d records, want 9", len(all))
	}
}

func TestSnapshotNewestFirstAndFilters(t *testing.T) {
	l := New(32)
	l.Add(rec("a", time.Millisecond, 10, 10))
	l.Add(rec("b", time.Second, 10, 10)) // slow
	l.Add(Record{Kind: "join", Dataset: "a", Dataset2: "b", EstimatedPairs: -1, ElapsedNS: 1})

	all := l.Snapshot(Filter{})
	if len(all) != 3 {
		t.Fatalf("snapshot len %d, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq >= all[i-1].Seq {
			t.Fatalf("snapshot not newest-first: %+v", all)
		}
	}
	if got := l.Snapshot(Filter{SlowOnly: true}); len(got) != 1 || got[0].Dataset != "b" {
		t.Fatalf("SlowOnly = %+v, want the slow b record", got)
	}
	// Dataset filter matches either side of a two-set join.
	if got := l.Snapshot(Filter{Dataset: "b"}); len(got) != 2 {
		t.Fatalf("Dataset=b matched %d records, want 2", len(got))
	}
	if got := l.Snapshot(Filter{Limit: 2}); len(got) != 2 || got[0].Seq != all[0].Seq {
		t.Fatalf("Limit=2 = %+v", got)
	}
}

func TestTotals(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(rec("a", time.Millisecond, -1, 0))
	}
	l.Add(rec("a", time.Second, -1, 0))
	total, slow := l.Totals()
	if total != 11 || slow != 1 {
		t.Fatalf("Totals = %d/%d, want 11/1", total, slow)
	}
	if l.Len() != 5 { // 4 ordinary retained + 1 pinned
		t.Fatalf("Len = %d, want 5", l.Len())
	}
}

// TestConcurrentPriorityRetention hammers the journal from many writers
// mixing pinned and ordinary records while readers snapshot, then
// verifies no pinned record in the final window was lost and snapshots
// stay ordered. Run under -race this is the journal's concurrency gate.
func TestConcurrentPriorityRetention(t *testing.T) {
	l := New(64) // pinned capacity 16
	const writers = 8
	const perWriter = 500
	var wg, readers sync.WaitGroup
	var done atomic.Bool
	// Readers yield between snapshots and stop once the writers finish —
	// a tight snapshot loop would starve the writers on a single-CPU
	// machine under the race detector.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				snap := l.Snapshot(Filter{})
				for i := 1; i < len(snap); i++ {
					if snap[i].Seq >= snap[i-1].Seq {
						t.Errorf("snapshot out of order at %d", i)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%10 == 0 {
					l.Add(rec("pinme", time.Second, -1, 0)) // slow → pinned
				} else {
					l.Add(rec("bulk", time.Microsecond, 10, 10))
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()

	total, slow := l.Totals()
	if want := int64(writers * perWriter); total != want {
		t.Fatalf("Totals total = %d, want %d", total, want)
	}
	if want := int64(writers * perWriter / 10); slow != want {
		t.Fatalf("Totals slow = %d, want %d", slow, want)
	}
	// The pinned ring holds exactly its capacity of slow records — the
	// newest 16 by seq — and none were displaced by the bulk flood.
	pinnedSnap := l.Snapshot(Filter{Dataset: "pinme"})
	if len(pinnedSnap) != 16 {
		t.Fatalf("retained %d pinned records, want 16", len(pinnedSnap))
	}
	// No ordinary record outlived a pinned one wrongly: every retained
	// pinned record is newer than the oldest possible eviction horizon.
	bulkSnap := l.Snapshot(Filter{Dataset: "bulk"})
	if len(bulkSnap) != 64 {
		t.Fatalf("retained %d bulk records, want 64", len(bulkSnap))
	}
}

func TestSnapshotLimitAcrossRings(t *testing.T) {
	l := New(8)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			l.Add(rec("s", time.Second, -1, 0))
		} else {
			l.Add(rec("f", time.Millisecond, -1, 0))
		}
	}
	got := l.Snapshot(Filter{Limit: 5})
	if len(got) != 5 {
		t.Fatalf("limit 5 returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq >= got[i-1].Seq {
			t.Fatalf("limited snapshot out of order: %+v", got)
		}
	}
}
