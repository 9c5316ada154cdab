package gateway

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// errTenantBusy is returned when a tenant is already at its in-flight
// cap; the request is shed immediately (429) rather than queued, so one
// tenant cannot occupy the queue either.
var errTenantBusy = errors.New("tenant at max_in_flight")

// fairQueue admits at most `slots` concurrently proxied queries and,
// under contention, releases waiters in weighted-fair order: each
// waiting request is stamped with a virtual finish time advancing the
// tenant's clock by 1/weight, and the smallest stamp runs next. A
// weight-4 tenant therefore drains four requests for every one of a
// weight-1 tenant while both are backlogged, and an idle tenant's first
// request is never penalized for the backlog of others (its clock is
// pulled up to the queue's virtual now).
type fairQueue struct {
	mu    sync.Mutex
	slots int // global concurrent admissions
	busy  int
	vtime float64
	wait  waiterHeap
}

// waiter is one queued request.
type waiter struct {
	tag   float64
	ready chan struct{}
	index int // heap position; -1 once released or abandoned
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].tag < h[j].tag }
func (h waiterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *waiterHeap) Push(x any)        { w := x.(*waiter); w.index = len(*h); *h = append(*h, w) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

func newFairQueue(slots int) *fairQueue { return &fairQueue{slots: slots} }

// queued reports the number of requests currently waiting for a slot.
func (q *fairQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.wait)
}

// acquire admits one request for tenant rt, blocking in weighted-fair
// order when all slots are busy. The returned release func must be
// called exactly once. It fails fast with errTenantBusy at the tenant's
// in-flight cap and with ctx.Err() if the caller gives up while queued.
func (q *fairQueue) acquire(ctx context.Context, rt *tenantRT) (func(), error) {
	q.mu.Lock()
	if !rt.tryAdmit() {
		q.mu.Unlock()
		return nil, errTenantBusy
	}
	if q.busy < q.slots {
		q.busy++
		q.mu.Unlock()
		return func() { q.release(rt) }, nil
	}
	w := &waiter{tag: rt.nextTag(q.vtime), ready: make(chan struct{})}
	heap.Push(&q.wait, w)
	q.mu.Unlock()

	select {
	case <-w.ready:
		return func() { q.release(rt) }, nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.index >= 0 {
			heap.Remove(&q.wait, w.index)
			rt.leave()
			q.mu.Unlock()
			return nil, ctx.Err()
		}
		// Lost the race: a release already granted us the slot. Hand it
		// straight back so the count stays balanced.
		q.mu.Unlock()
		q.release(rt)
		return nil, ctx.Err()
	}
}

// release frees one slot and wakes the smallest-tag waiter, advancing
// the queue's virtual clock to that waiter's stamp.
func (q *fairQueue) release(rt *tenantRT) {
	q.mu.Lock()
	rt.leave()
	if len(q.wait) > 0 {
		w := heap.Pop(&q.wait).(*waiter)
		if w.tag > q.vtime {
			q.vtime = w.tag
		}
		close(w.ready)
		// The slot transfers to the waiter; busy is unchanged.
		q.mu.Unlock()
		return
	}
	q.busy--
	q.mu.Unlock()
}
