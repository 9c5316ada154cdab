// Package live is simjoind's continuous-query engine: a long-lived
// incremental index per dataset plus a registry of standing similarity
// joins. A subscriber registers a self-join or two-set query once and
// from then on receives exactly the *new* qualifying pairs each appended
// batch creates — the delta enumeration problem of maintaining a
// similarity join under insertions, instead of recomputing it per
// request.
//
// The delta of a batch is computed point-by-point against the index
// *before* the point is inserted: every neighbor found is an earlier
// point (smaller index, including same-batch predecessors), so each new
// pair is enumerated exactly once and self-join pairs come out i < j by
// construction.
//
// Sequence tokens are simply dataset lengths. An append is fully
// determined by the prefix length it grows, lengths survive WAL replay
// and snapshot compaction untouched, and a reconnecting subscriber can
// resume with Options.After = the last Seq it processed: the catch-up
// replay re-derives the missed pairs from the recovered index rather
// than from retained history, so delivery is at-least-once across
// crashes without the store keeping any per-subscriber state.
//
// Append only queues a committed batch: one apply goroutine per engine
// enumerates its delta and delivers it, in commit order, so the append
// that committed it need not wait for either. Every other method applies
// the queue first, so what it reads or changes follows every batch queued
// before it was called.
package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/obsv/trace"
)

// Hooks lets the daemon observe the engine without the engine importing
// the metrics stack. Every field may be nil. Callbacks run under the
// engine mutex — keep them O(1).
type Hooks struct {
	// Append observes one applied batch: wall time of the delta-compute
	// + insert pass and how many points it added.
	Append func(d time.Duration, points int)
	// Batch observes one delivered batch event and its pair count.
	Batch func(pairs int)
	// CatchUp observes one catch-up replay and its pair count.
	CatchUp func(pairs int)
	// Subscribed / Unsubscribed observe registry churn.
	Subscribed   func()
	Unsubscribed func()
	// Evicted observes a slow-consumer eviction.
	Evicted func()
}

// UnknownDatasetError reports a subscription against an untracked or
// unregistered dataset.
type UnknownDatasetError struct{ Name string }

func (e UnknownDatasetError) Error() string { return fmt.Sprintf("no dataset %q", e.Name) }

// QueryError reports an invalid standing query (a 400 at the API layer).
type QueryError struct{ Msg string }

func (e QueryError) Error() string { return e.Msg }

// ErrShutdown is returned by Subscribe once Shutdown has run.
var ErrShutdown = QueryError{Msg: "live engine is shut down"}

// liveSet is one tracked dataset: its incremental index plus the
// subscriptions that must hear about its appends, split by the role the
// set plays in each query.
type liveSet struct {
	name string
	idx  *Index
	// self holds self-join subscriptions on this set; asA / asB hold
	// two-set subscriptions in which this set is the Dataset / Other
	// side respectively.
	self map[uint64]*Subscription
	asA  map[uint64]*Subscription
	asB  map[uint64]*Subscription
}

func newLiveSet(name string, seed *dataset.Dataset, eps float64) *liveSet {
	return &liveSet{
		name: name,
		idx:  newIndex(seed, eps),
		self: make(map[uint64]*Subscription),
		asA:  make(map[uint64]*Subscription),
		asB:  make(map[uint64]*Subscription),
	}
}

func (ls *liveSet) subscriptions() int { return len(ls.self) + len(ls.asA) + len(ls.asB) }

// maxBacklog is how many queued batches Append lets stand unapplied
// before it waits for the apply to catch up: the bound that keeps an
// apply slower than the appends from growing the queue without limit.
const maxBacklog = 64

// batch is one committed append waiting for the apply: the snapshot after
// it, how many of its last points it added, and the trace to continue.
type batch struct {
	name        string
	ds          *dataset.Dataset
	added       int
	tracer      *trace.Tracer
	traceparent string
	queued      time.Time
}

// Engine owns every tracked dataset's incremental index and every
// standing query. One mutex serializes all mutation and delivery: that
// total order is what makes "each new pair is delivered exactly once,
// by the append that completed it" well-defined, including for two-set
// queries whose sides append concurrently. Appends reach it through the
// apply queue, in the order they were queued.
type Engine struct {
	hooks Hooks

	mu     sync.Mutex
	sets   map[string]*liveSet
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool

	// qmu guards the apply queue: the batches Append queued that no
	// applier has finished, oldest first. The head stays queued while it
	// is applied. space signals a shorter queue or a stopped engine to
	// Appends waiting at maxBacklog.
	qmu     sync.Mutex
	space   *sync.Cond
	queue   []batch
	stopped bool
	// kick wakes the apply goroutine; stop ends it and done says it ended.
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New builds an empty engine and starts its apply goroutine; Shutdown
// stops it.
func New(hooks Hooks) *Engine {
	e := &Engine{
		hooks: hooks,
		sets:  make(map[string]*liveSet),
		subs:  make(map[uint64]*Subscription),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	e.space = sync.NewCond(&e.qmu)
	go e.run()
	return e
}

// run is the apply goroutine: each kick applies whatever is queued.
func (e *Engine) run() {
	defer close(e.done)
	for {
		select {
		case <-e.kick:
			e.mu.Lock()
			e.applyLocked()
			e.mu.Unlock()
		case <-e.stop:
			return
		}
	}
}

// lock takes the engine mutex and applies the queue, so the caller sees
// every batch queued before it.
func (e *Engine) lock() {
	e.mu.Lock()
	e.applyLocked()
}

// applyLocked applies the queued batches in order until the queue is
// empty. The caller holds e.mu, so appliers never interleave.
func (e *Engine) applyLocked() {
	for {
		e.qmu.Lock()
		if len(e.queue) == 0 {
			e.qmu.Unlock()
			return
		}
		b, backlog := e.queue[0], len(e.queue)
		e.qmu.Unlock()
		e.appendLocked(b, backlog)
		e.qmu.Lock()
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = batch{} // drop the snapshot reference
		e.queue = e.queue[:n]
		e.space.Signal()
		e.qmu.Unlock()
	}
}

// Backlog returns how many appended batches are queued and not yet
// applied. Unlike every other method it does not apply them.
func (e *Engine) Backlog() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue)
}

// Track starts (or refreshes) live tracking of name, seeding the index
// from snapshot ds — callers snapshot ds under the same lock that
// serializes their Append notifications, so the index can never miss or
// double-count a batch. The index reads its points from the snapshots it
// is handed and copies none. epsHint pre-sizes the index for an upcoming
// subscription. Tracking an already-tracked dataset only raises ε.
func (e *Engine) Track(name string, ds *dataset.Dataset, epsHint float64) {
	e.lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	ls, ok := e.sets[name]
	if !ok {
		e.sets[name] = newLiveSet(name, ds, epsHint)
		return
	}
	if ls.idx.Dims() != ds.Dims() || ls.idx.Len() > ds.Len() {
		// The dataset was replaced under us without a Drop — the index
		// no longer covers a prefix of the truth.
		e.dropLocked(name, ReasonDesync)
		e.sets[name] = newLiveSet(name, ds, epsHint)
		return
	}
	// The index covers a strict prefix when appends landed while nothing
	// subscribed to notice; silently sync the tail (those batches owe no
	// notifications — no subscription was alive to see them... and if one
	// was, Append kept the index current and this loop is empty).
	ls.idx.Adopt(ds)
	for ls.idx.Len() < ds.Len() {
		ls.idx.Next()
	}
	ls.idx.EnsureEps(epsHint)
}

// Tracked reports whether name has a live index.
func (e *Engine) Tracked(name string) bool {
	e.lock()
	defer e.mu.Unlock()
	_, ok := e.sets[name]
	return ok
}

// Append queues one committed batch for the engine, to compute each
// affected standing query's delta pairs, insert the points into the
// incremental index, and deliver one batch event per subscription. ds is
// the dataset after the batch, whose last added points are the batch; the
// index adopts it instead of copying the points. Its length is the
// batch's sequence token, which also guards the index against reordered
// or replayed notifications. Untracked datasets are ignored.
//
// Batches apply in the order they were queued, so callers queue under the
// lock that orders their commits. Append returns once the batch is
// queued; it waits only while maxBacklog batches stand unapplied. ctx
// lends the batch its trace and nothing else: the batch is committed, so
// a caller that gives up does not take it back.
func (e *Engine) Append(ctx context.Context, name string, ds *dataset.Dataset, added int) {
	sp := trace.FromContext(ctx)
	b := batch{name: name, ds: ds, added: added, tracer: sp.Tracer(), traceparent: sp.TraceParent(), queued: time.Now()}
	e.qmu.Lock()
	for len(e.queue) >= maxBacklog && !e.stopped {
		e.space.Wait()
	}
	if e.stopped {
		e.qmu.Unlock()
		return
	}
	e.queue = append(e.queue, b)
	e.qmu.Unlock()
	select {
	case e.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// appendLocked applies one queued batch, found with backlog batches
// queued (itself included). It records the apply as the root span
// live.append, continuing the trace of the request that queued it.
func (e *Engine) appendLocked(b batch, backlog int) {
	if e.closed {
		return
	}
	name, ds, added := b.name, b.ds, b.added
	ls, ok := e.sets[name]
	if !ok {
		return
	}
	total := ds.Len()
	if ls.idx.Len() >= total {
		return // the index was seeded from a snapshot that already includes this batch
	}
	if ls.idx.Len()+added != total || ds.Dims() != ls.idx.Dims() {
		// A gap: some batch's notification never arrived. The index can
		// no longer honor the exactly-once-per-pair contract.
		e.dropLocked(name, ReasonDesync)
		return
	}

	start := time.Now()
	sp := b.tracer.StartRemote("live.append", b.traceparent)
	sp.SetAttr("dataset", name)
	sp.AddCounter("points", int64(added))
	sp.AddCounter("queued_us", start.Sub(b.queued).Microseconds())
	sp.AddCounter("backlog", int64(backlog))
	defer sp.End()

	deltas := make(map[*Subscription][][2]int)
	startIdx := ls.idx.Len()
	ls.idx.Adopt(ds)
	for j := startIdx; j < total; j++ {
		// Delta pairs against everything already indexed — earlier
		// points and same-batch predecessors alike — then insert.
		p := ds.Point(j)
		for _, sub := range ls.self {
			q := sub.q
			ls.idx.Neighbors(p, q.Metric, q.Eps, func(i int) {
				deltas[sub] = append(deltas[sub], [2]int{i, j})
			})
		}
		ls.idx.Next()
	}
	for _, sub := range ls.asA {
		other := e.sets[sub.q.Other]
		for i := startIdx; i < total; i++ {
			other.idx.Neighbors(ds.Point(i), sub.q.Metric, sub.q.Eps, func(j int) {
				deltas[sub] = append(deltas[sub], [2]int{i, j})
			})
		}
	}
	for _, sub := range ls.asB {
		a := e.sets[sub.q.Dataset]
		for j := startIdx; j < total; j++ {
			a.idx.Neighbors(ds.Point(j), sub.q.Metric, sub.q.Eps, func(i int) {
				deltas[sub] = append(deltas[sub], [2]int{i, j})
			})
		}
	}
	if e.hooks.Append != nil {
		e.hooks.Append(time.Since(start), added)
	}

	nsp := sp.Child("live.notify")
	var pairTotal int64
	notified := 0
	notify := func(sub *Subscription, seq, seqOther int) {
		notified++
		pairTotal += int64(len(deltas[sub]))
		e.deliverLocked(sub, Event{
			Pairs:    deltas[sub],
			Seq:      seq,
			SeqOther: seqOther,
			Added:    added,
		})
	}
	for _, sub := range ls.self {
		notify(sub, ls.idx.Len(), 0)
	}
	for _, sub := range ls.asA {
		notify(sub, ls.idx.Len(), e.sets[sub.q.Other].idx.Len())
	}
	for _, sub := range ls.asB {
		notify(sub, e.sets[sub.q.Dataset].idx.Len(), ls.idx.Len())
	}
	nsp.AddCounter("subscriptions", int64(notified))
	nsp.AddCounter("pairs", pairTotal)
	sp.AddCounter("pairs", pairTotal)
	nsp.End()
}

// deliverLocked pushes ev and handles the slow-consumer case: a full
// mailbox evicts the subscription entirely (its stream ends with
// ReasonSlowConsumer; the client may reconnect with After to resync).
func (e *Engine) deliverLocked(sub *Subscription, ev Event) {
	if sub.deliver(ev) {
		if e.hooks.Batch != nil {
			e.hooks.Batch(len(ev.Pairs))
		}
		return
	}
	if sub.reason == ReasonSlowConsumer {
		e.removeSubLocked(sub)
		if e.hooks.Evicted != nil {
			e.hooks.Evicted()
		}
	}
}

// Subscribe registers a standing query over tracked datasets (Track
// first) and returns its subscription. With Options.After set, the
// mailbox starts with one catch-up event replaying every pair the
// subscriber missed since that cursor.
func (e *Engine) Subscribe(q Query, opt Options) (*Subscription, error) {
	e.lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrShutdown
	}
	if !(q.Eps > 0) {
		return nil, QueryError{Msg: "eps must be positive"}
	}
	if q.Other == q.Dataset && q.Other != "" {
		return nil, QueryError{Msg: "two-set watch of a dataset against itself; use a self-join"}
	}
	lsA, ok := e.sets[q.Dataset]
	if !ok {
		return nil, UnknownDatasetError{Name: q.Dataset}
	}
	var lsB *liveSet
	if q.Other != "" {
		if lsB, ok = e.sets[q.Other]; !ok {
			return nil, UnknownDatasetError{Name: q.Other}
		}
		if lsA.idx.Dims() != lsB.idx.Dims() {
			return nil, QueryError{Msg: fmt.Sprintf("dimensionality mismatch: %d vs %d", lsA.idx.Dims(), lsB.idx.Dims())}
		}
	}
	if opt.After != nil && (*opt.After < 0 || *opt.After > lsA.idx.Len()) {
		return nil, QueryError{Msg: fmt.Sprintf("after cursor %d outside [0, %d]", *opt.After, lsA.idx.Len())}
	}
	if opt.AfterOther != nil && (lsB == nil || *opt.AfterOther < 0 || *opt.AfterOther > lsB.idx.Len()) {
		return nil, QueryError{Msg: "after_other cursor invalid for this query"}
	}
	lsA.idx.EnsureEps(q.Eps)
	if lsB != nil {
		lsB.idx.EnsureEps(q.Eps)
	}

	buf := opt.Buffer
	if buf <= 0 {
		buf = DefaultBuffer
	}
	e.nextID++
	sub := &Subscription{id: e.nextID, q: q, ch: make(chan Event, buf), baseSeq: lsA.idx.Len()}
	if lsB != nil {
		sub.baseSeqOther = lsB.idx.Len()
	}
	e.subs[sub.id] = sub
	if lsB == nil {
		lsA.self[sub.id] = sub
	} else {
		lsA.asA[sub.id] = sub
		lsB.asB[sub.id] = sub
	}
	if ev, ok := e.catchUpLocked(lsA, lsB, q, opt); ok {
		if e.hooks.CatchUp != nil {
			e.hooks.CatchUp(len(ev.Pairs))
		}
		e.deliverLocked(sub, ev)
	}
	if e.hooks.Subscribed != nil {
		e.hooks.Subscribed()
	}
	return sub, nil
}

// catchUpLocked re-derives the pairs a reconnecting subscriber missed
// since its cursors, straight from the incremental indexes. For a
// self-join with cursor L, those are the pairs whose later endpoint is
// ≥ L; for a two-set query with cursors (La, Lb), the pairs outside the
// already-seen [0,La)×[0,Lb) prefix.
func (e *Engine) catchUpLocked(lsA, lsB *liveSet, q Query, opt Options) (Event, bool) {
	if opt.After == nil && opt.AfterOther == nil {
		return Event{}, false
	}
	var prs [][2]int
	if lsB == nil {
		after := lsA.idx.Len()
		if opt.After != nil {
			after = *opt.After
		}
		for j := after; j < lsA.idx.Len(); j++ {
			lsA.idx.Neighbors(lsA.idx.Point(j), q.Metric, q.Eps, func(i int) {
				if i < j {
					prs = append(prs, [2]int{i, j})
				}
			})
		}
		return Event{Pairs: prs, Seq: lsA.idx.Len(), Added: lsA.idx.Len() - after, CatchUp: true}, true
	}
	afterA, afterB := lsA.idx.Len(), lsB.idx.Len()
	if opt.After != nil {
		afterA = *opt.After
	}
	if opt.AfterOther != nil {
		afterB = *opt.AfterOther
	}
	for i := afterA; i < lsA.idx.Len(); i++ {
		lsB.idx.Neighbors(lsA.idx.Point(i), q.Metric, q.Eps, func(j int) {
			prs = append(prs, [2]int{i, j})
		})
	}
	for j := afterB; j < lsB.idx.Len(); j++ {
		lsA.idx.Neighbors(lsB.idx.Point(j), q.Metric, q.Eps, func(i int) {
			if i < afterA {
				prs = append(prs, [2]int{i, j})
			}
		})
	}
	added := (lsA.idx.Len() - afterA) + (lsB.idx.Len() - afterB)
	return Event{Pairs: prs, Seq: lsA.idx.Len(), SeqOther: lsB.idx.Len(), Added: added, CatchUp: true}, true
}

// Unsubscribe ends one subscription (normally because its client went
// away). Unknown ids are a no-op.
func (e *Engine) Unsubscribe(id uint64) {
	e.lock()
	defer e.mu.Unlock()
	sub, ok := e.subs[id]
	if !ok {
		return
	}
	sub.terminate("unsubscribed")
	e.removeSubLocked(sub)
}

// removeSubLocked unregisters sub everywhere.
func (e *Engine) removeSubLocked(sub *Subscription) {
	delete(e.subs, sub.id)
	if ls, ok := e.sets[sub.q.Dataset]; ok {
		delete(ls.self, sub.id)
		delete(ls.asA, sub.id)
	}
	if sub.q.Other != "" {
		if ls, ok := e.sets[sub.q.Other]; ok {
			delete(ls.asB, sub.id)
		}
	}
	if e.hooks.Unsubscribed != nil {
		e.hooks.Unsubscribed()
	}
}

// Drop stops tracking name — the dataset was deleted or replaced — and
// terminates every subscription touching it with the given reason, so
// their streams end with a terminal event instead of dangling.
func (e *Engine) Drop(name, reason string) {
	e.lock()
	defer e.mu.Unlock()
	e.dropLocked(name, reason)
}

func (e *Engine) dropLocked(name, reason string) {
	ls, ok := e.sets[name]
	if !ok {
		return
	}
	delete(e.sets, name)
	for _, m := range []map[uint64]*Subscription{ls.self, ls.asA, ls.asB} {
		for _, sub := range m {
			sub.terminate(reason)
			e.removeSubLocked(sub)
		}
	}
}

// Shutdown applies the batches already queued, terminates every
// subscription (their streams end with ReasonShutdown), refuses further
// work and stops the apply goroutine — the graceful-exit hook the daemon
// runs before draining HTTP.
func (e *Engine) Shutdown() {
	e.qmu.Lock()
	e.stopped = true
	e.space.Broadcast()
	e.qmu.Unlock()
	e.lock()
	first := !e.closed
	if first {
		e.closed = true
		for _, sub := range e.subs {
			sub.terminate(ReasonShutdown)
		}
		e.subs = make(map[uint64]*Subscription)
		e.sets = make(map[string]*liveSet)
	}
	e.mu.Unlock()
	if first {
		close(e.stop)
	}
	<-e.done
}

// Subscriptions returns the number of active subscriptions.
func (e *Engine) Subscriptions() int {
	e.lock()
	defer e.mu.Unlock()
	return len(e.subs)
}

// DatasetStats describes one dataset's live state for introspection.
type DatasetStats struct {
	Tracked       bool    `json:"tracked"`
	Subscriptions int     `json:"subscriptions"`
	IndexedPoints int     `json:"indexed_points,omitempty"`
	Eps           float64 `json:"eps,omitempty"`
}

// Stats reports name's live-engine state (zero value when untracked).
func (e *Engine) Stats(name string) DatasetStats {
	e.lock()
	defer e.mu.Unlock()
	ls, ok := e.sets[name]
	if !ok {
		return DatasetStats{}
	}
	return DatasetStats{
		Tracked:       true,
		Subscriptions: ls.subscriptions(),
		IndexedPoints: ls.idx.Len(),
		Eps:           ls.idx.Eps(),
	}
}

// Seq returns the current sequence token (indexed length) for name, or
// -1 when untracked — what a hello event reports.
func (e *Engine) Seq(name string) int {
	e.lock()
	defer e.mu.Unlock()
	if ls, ok := e.sets[name]; ok {
		return ls.idx.Len()
	}
	return -1
}
