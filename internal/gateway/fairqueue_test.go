package gateway

import (
	"container/heap"
	"context"
	"sync"
	"testing"
	"time"
)

func waitQueued(t *testing.T, q *fairQueue, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for q.queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, q.queued())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFairQueueTenantCap(t *testing.T) {
	q := newFairQueue(8)
	rt := &tenantRT{name: "a", maxInFlight: 1}
	rel, err := q.acquire(context.Background(), rt)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := q.acquire(context.Background(), rt); err != errTenantBusy {
		t.Fatalf("second acquire: got %v, want errTenantBusy", err)
	}
	rel()
	rel2, err := q.acquire(context.Background(), rt)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	rel2()
}

func TestFairQueueWeightedOrder(t *testing.T) {
	// One slot, held; tenant A (weight 4) and B (weight 1) backlog
	// behind it. A's virtual finish tags (0.25, 0.5, 0.75) all precede
	// B's (1, 2), so the drain order is a1 a2 a3 b1 b2 regardless of
	// enqueue interleaving.
	q := newFairQueue(1)
	holder := &tenantRT{name: "holder"}
	a := &tenantRT{name: "a", weight: 4}
	b := &tenantRT{name: "b", weight: 1}
	relHold, err := q.acquire(context.Background(), holder)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	order := make(chan string, 5)
	var wg sync.WaitGroup
	enqueue := func(rt *tenantRT, label string) {
		t.Helper()
		depth := q.queued()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := q.acquire(context.Background(), rt)
			if err != nil {
				t.Errorf("%s acquire: %v", label, err)
				return
			}
			order <- label
			rel()
		}()
		waitQueued(t, q, depth+1)
	}
	enqueue(a, "a1")
	enqueue(b, "b1")
	enqueue(a, "a2")
	enqueue(a, "a3")
	enqueue(b, "b2")

	relHold()
	wg.Wait()
	close(order)
	var got []string
	for l := range order {
		got = append(got, l)
	}
	want := []string{"a1", "a2", "a3", "b1", "b2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestFairQueueCancelWhileQueued(t *testing.T) {
	q := newFairQueue(1)
	holder := &tenantRT{name: "holder"}
	waiterRT := &tenantRT{name: "w"}
	relHold, err := q.acquire(context.Background(), holder)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.acquire(ctx, waiterRT)
		done <- err
	}()
	waitQueued(t, q, 1)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("abandoned acquire: got %v, want context.Canceled", err)
	}
	relHold()
	// The slot must be reusable after the abandon.
	rel, err := q.acquire(context.Background(), waiterRT)
	if err != nil {
		t.Fatalf("acquire after abandon: %v", err)
	}
	rel()
	if q.queued() != 0 {
		t.Fatalf("queue depth %d after drain, want 0", q.queued())
	}
}

// TestFairQueueLostRaceReturnsSlot: a waiter whose context ends just as a
// release grants it the slot hands the slot back, so neither the queue's
// busy count nor the tenant's in-flight count leaks. The test plays the
// release itself under q.mu, after the cancel. A waiter parked in its
// select wakes on the cancel and then finds itself granted; one that had
// not parked yet sees both and picks at random, so the test repeats until
// the cancel won.
func TestFairQueueLostRaceReturnsSlot(t *testing.T) {
	for try := 0; try < 100; try++ {
		q := newFairQueue(1)
		holder, w := &tenantRT{name: "holder"}, &tenantRT{name: "w"}
		if _, err := q.acquire(context.Background(), holder); err != nil {
			t.Fatalf("holder acquire: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			rel, err := q.acquire(ctx, w)
			if err == nil {
				rel() // the grant won: this try misses the race
			}
			done <- err
		}()
		waitQueued(t, q, 1)

		q.mu.Lock()
		cancel()
		// What release does for the holder: it leaves, and its slot passes
		// to the popped waiter.
		holder.leave()
		close(heap.Pop(&q.wait).(*waiter).ready)
		q.mu.Unlock()

		err := <-done
		q.mu.Lock()
		busy, inflight := q.busy, w.inflight
		q.mu.Unlock()
		if busy != 0 || inflight != 0 {
			t.Fatalf("try %d (acquire: %v): busy %d, tenant in flight %d after the waiter returned, want 0 and 0", try, err, busy, inflight)
		}
		if err == context.Canceled {
			return
		}
	}
	t.Fatal("the waiter took the grant in all 100 tries; the lost race never ran")
}

func TestFairQueueConcurrentChurn(t *testing.T) {
	q := newFairQueue(4)
	tenants := []*tenantRT{
		{name: "a", weight: 2, maxInFlight: 8},
		{name: "b", weight: 1, maxInFlight: 8},
		{name: "c", weight: 1},
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		rt := tenants[i%len(tenants)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rel, err := q.acquire(context.Background(), rt)
				if err == errTenantBusy {
					continue
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				rel()
			}
		}()
	}
	wg.Wait()
	if q.queued() != 0 {
		t.Fatalf("queue depth %d after churn, want 0", q.queued())
	}
	q.mu.Lock()
	busy := q.busy
	q.mu.Unlock()
	if busy != 0 {
		t.Fatalf("busy %d after churn, want 0", busy)
	}
}
