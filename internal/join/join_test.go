package join

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

func TestValidate(t *testing.T) {
	good := Options{Metric: vec.L2, Eps: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	for name, o := range map[string]Options{
		"zero eps":     {Metric: vec.L2},
		"negative eps": {Metric: vec.L2, Eps: -1},
		"nan eps":      {Metric: vec.L2, Eps: math.NaN()},
		"bad metric":   {Metric: vec.Metric(9), Eps: 1},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMustValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustValidate of invalid options did not panic")
		}
	}()
	Options{}.MustValidate()
}

func TestStatsNilSafe(t *testing.T) {
	var o Options
	o.Stats().AddDistComps(5) // must not crash
	var c stats.Counters
	o.Counters = &c
	o.Stats().AddDistComps(3)
	if c.Snapshot().DistComps != 3 {
		t.Error("counters not forwarded")
	}
}

func TestWorkerCount(t *testing.T) {
	if got := (Options{Workers: 3}).WorkerCount(); got != 3 {
		t.Errorf("WorkerCount = %d, want 3", got)
	}
	for _, w := range []int{0, 1, -2} {
		if got := (Options{Workers: w}).WorkerCount(); got != 1 {
			t.Errorf("Workers %d: WorkerCount = %d, want 1", w, got)
		}
	}
}

// TestSpreadWorkers: every worker index runs exactly once, and all of them
// have returned when Spread does.
func TestSpreadWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 3, 8} {
		ran := make([]atomic.Int32, n)
		Spread(n, func(w int) { ran[w].Add(1) })
		for w := range ran {
			if got := ran[w].Load(); got != 1 {
				t.Errorf("workers=%d: worker %d ran %d times", n, w, got)
			}
		}
	}
}

// TestSpreadRaisesWorkerPanicOnCaller: a panic in a started worker
// reaches the caller as that value, and only after the other workers
// have finished.
func TestSpreadRaisesWorkerPanicOnCaller(t *testing.T) {
	var done [3]atomic.Bool
	defer func() {
		if p := recover(); p != "worker 0" {
			t.Fatalf("recovered %v, want worker 0's panic", p)
		}
		if !done[1].Load() || !done[2].Load() {
			t.Fatal("Spread panicked before workers 1 and 2 finished")
		}
	}()
	Spread(3, func(w int) {
		if w == 0 {
			panic("worker 0")
		}
		time.Sleep(20 * time.Millisecond)
		done[w].Store(true)
	})
	t.Fatal("Spread returned normally after a worker panicked")
}

func TestThreshold(t *testing.T) {
	if got := (Options{Metric: vec.L2, Eps: 3}).Threshold(); got != 9 {
		t.Errorf("L2 threshold = %g, want 9", got)
	}
	if got := (Options{Metric: vec.L1, Eps: 3}).Threshold(); got != 3 {
		t.Errorf("L1 threshold = %g, want 3", got)
	}
}
