package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/live"
	"simjoin/internal/vec"
)

// WatchEvent is one translated batch of standing-query pairs from one
// shard: global upload-order indexes, i < j, positionally deduped so a
// pair found by several replica-holding shards is emitted once.
type WatchEvent struct {
	Pairs [][2]int
	// Shard produced the batch; Seq is that shard's worker-local resume
	// cursor (its dataset length after the batch).
	Shard int
	Seq   int
	// Added is how many points the worker's batch appended; CatchUp
	// marks a replay batch rather than a live one.
	Added   int
	CatchUp bool
}

const (
	watchRetryMin = 50 * time.Millisecond
	watchRetryMax = time.Second
)

// Watch runs a standing self-join across every shard of the dataset:
// it opens one worker watch stream per shard, translates each delta
// batch into global indexes, dedupes pairs found by replica-holding
// neighbors, and hands every batch to emit (serialized; return false to
// stop the watch as a slow consumer). fromStart replays the dataset's
// entire pair set first; otherwise only pairs created by appends after
// the call are delivered.
//
// Broken shard streams reconnect with the shard's last delivered cursor
// — a worker restarted from its WAL replays what the watch missed — so
// delivery is at-least-once: callers union pairs rather than count
// them. Watch blocks until the dataset is deleted or replaced, emit
// gives up, or ctx ends; the terminal reason (live.ReasonDeleted,
// live.ReasonReplaced, live.ReasonSlowConsumer) comes back with a nil
// error, ctx cancellation as ("", ctx.Err()).
func (c *Coordinator) Watch(ctx context.Context, name string, q JoinQuery, fromStart bool, emit func(WatchEvent) bool) (string, error) {
	sm, ok := c.Map(name)
	if !ok {
		return "", NotFoundError{Name: name}
	}
	if !(q.Eps > 0) {
		return "", QueryError{Msg: "eps must be positive"}
	}
	if q.Eps > sm.Margin {
		return "", queryErrorf("eps %g exceeds the dataset's shard margin %g; re-upload with a larger margin", q.Eps, sm.Margin)
	}
	if q.Metric != "" {
		if _, err := vec.ParseMetric(q.Metric); err != nil {
			return "", QueryError{Msg: err.Error()}
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &coordWatch{c: c, name: name, q: q, emit: emit, cancel: cancel}
	w.mu.Lock()
	w.refreshLocked(sm)
	w.mu.Unlock()
	var wg sync.WaitGroup
	for s := range sm.Shards {
		after := 0
		if !fromStart {
			after = len(sm.Shards[s].Global)
		}
		wg.Add(1)
		go func(s, after int) {
			defer wg.Done()
			w.run(wctx, s, after)
		}(s, after)
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.reason != "" {
		return w.reason, nil
	}
	return "", ctx.Err()
}

// coordWatch is the shared state of one Watch call: the terminal
// reason, the emit serialization lock, and the owner table cached per
// shard-map generation for positional dedup.
type coordWatch struct {
	c      *Coordinator
	name   string
	q      JoinQuery
	emit   func(WatchEvent) bool
	cancel context.CancelFunc

	mu     sync.Mutex
	reason string
	sm     *ShardMap
	owner  []int
}

// refreshLocked swaps in the dataset's current shard map, recomputing
// the core-owner table only when an append produced a new generation.
func (w *coordWatch) refreshLocked(sm *ShardMap) {
	if sm != w.sm {
		w.sm, w.owner = sm, sm.coreOwners()
	}
}

// finishLocked records the watch's terminal reason (first writer wins)
// and stops every shard stream.
func (w *coordWatch) finishLocked(reason string) {
	if w.reason == "" {
		w.reason = reason
	}
	w.cancel()
}

func (w *coordWatch) finish(reason string) {
	w.mu.Lock()
	w.finishLocked(reason)
	w.mu.Unlock()
}

// run keeps one shard's watch stream alive until the watch ends: open,
// consume, and on any non-terminal break — worker down, worker
// restarting, stream evicted server-side, shard not created yet —
// reconnect with the shard's cursor after a backoff.
func (w *coordWatch) run(ctx context.Context, s, after int) {
	backoff := watchRetryMin
	// One reusable timer for the whole retry loop: time.After leaks its
	// timer until expiry, and a watch that is cancelled mid-backoff
	// (dataset deleted, server shutdown) would strand one per retry —
	// with many shards and the backoff at watchRetryMax that is real
	// memory held for seconds after the watch is gone. The timer is
	// always either drained (the <-timer.C receive) or stopped on the
	// way out, so Reset never races a stale tick.
	timer := time.NewTimer(backoff)
	timer.Stop()
	defer timer.Stop()
	for ctx.Err() == nil {
		opened, err := w.streamOnce(ctx, s, &after)
		if ctx.Err() != nil {
			return
		}
		if opened && err == nil {
			backoff = watchRetryMin
		}
		// The dataset disappearing from the registry is terminal no
		// matter how the worker stream ended.
		if _, ok := w.c.Map(w.name); !ok {
			w.finish(live.ReasonDeleted)
			return
		}
		timer.Reset(backoff)
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if backoff *= 2; backoff > watchRetryMax {
			backoff = watchRetryMax
		}
	}
}

// errStreamOver ends the read of a shard stream early: the worker sent
// its end event, or the whole watch finished.
var errStreamOver = errors.New("stream over")

// streamOnce opens one worker watch stream and consumes it to its end,
// advancing *after as batches arrive. It reports whether the stream got
// past the HTTP handshake (resets the caller's backoff) and a non-nil
// error only for breaks worth logging; terminal outcomes go through
// finish and are surfaced by cancelling ctx.
func (w *coordWatch) streamOnce(ctx context.Context, s int, after *int) (bool, error) {
	w.mu.Lock()
	sm := w.sm
	w.mu.Unlock()
	body, err := json.Marshal(api.WatchRequest{Eps: w.q.Eps, Metric: w.q.Metric, After: after})
	if err != nil {
		return false, err
	}
	resp, err := w.c.rc.Post(ctx, w.c.datasetURL(sm, s, w.name)+"/watch", "application/json", body)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode == http.StatusBadRequest && *after > 0 {
			// The worker holds fewer points than our cursor — it lost
			// durable state. Replay its shard from the start; delivery
			// is at-least-once, so re-seen pairs are harmless.
			*after = 0
		}
		// 404 included: an empty shard whose worker has no dataset yet,
		// or a worker restarted empty. Retry until it appears or the
		// dataset is dropped from the registry.
		return false, fmt.Errorf("worker status %d", resp.StatusCode)
	}
	var buf [][2]int
	err = api.ReadStream(resp.Body, func(p [2]int) error {
		buf = append(buf, p)
		return nil
	}, func(raw json.RawMessage) error {
		var ev api.WatchBatch
		if err := json.Unmarshal(raw, &ev); err != nil {
			return err
		}
		switch ev.Event {
		case "batch":
			*after = ev.Seq
			if !w.deliver(s, buf, ev) {
				return errStreamOver
			}
			buf = buf[:0]
		case "end":
			var end api.WatchEnd
			if err := json.Unmarshal(raw, &end); err != nil {
				return err
			}
			if end.Reason == live.ReasonDeleted || end.Reason == live.ReasonReplaced {
				w.finish(end.Reason)
			}
			// Any other reason (shutdown, eviction) reconnects.
			return errStreamOver
		}
		return nil
	})
	if errors.Is(err, errStreamOver) {
		err = nil
	}
	return true, err
}

// deliver translates one shard batch into global index space, dedupes
// it positionally, and emits it. It returns false once the watch is
// over — terminally finished, the dataset gone, or emit giving up.
func (w *coordWatch) deliver(s int, local [][2]int, line api.WatchBatch) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.reason != "" {
		return false
	}
	sm, ok := w.c.Map(w.name)
	if !ok {
		w.finishLocked(live.ReasonDeleted)
		return false
	}
	w.refreshLocked(sm)
	global := w.sm.Shards[s].Global
	out := make([][2]int, 0, len(local))
	for _, p := range local {
		// Skip points with no global identity under the current map:
		// appends bypassing the coordinator, or a translation racing a
		// not-yet-registered successor map.
		if p[0] < 0 || p[1] < 0 || p[0] >= len(global) || p[1] >= len(global) {
			continue
		}
		gi, gj := global[p[0]], global[p[1]]
		if gi > gj {
			gi, gj = gj, gi
		}
		// Positional dedup, as in SelfJoinEach: only the shard owning
		// the pair's lowest-owner endpoint reports it.
		if min(w.owner[gi], w.owner[gj]) != s {
			continue
		}
		out = append(out, [2]int{gi, gj})
	}
	if !w.emit(WatchEvent{Pairs: out, Shard: s, Seq: line.Seq, Added: line.Added, CatchUp: line.CatchUp}) {
		w.finishLocked(live.ReasonSlowConsumer)
		return false
	}
	return true
}
