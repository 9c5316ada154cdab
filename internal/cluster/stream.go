package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"simjoin/internal/api"
	"simjoin/internal/pairs"
)

// coreOwners maps every global point index to the shard that owns its
// core copy. Replication only ever copies a point downward (into shards
// below its slab), so the owning shard is the highest-numbered shard
// holding the point.
func (m *ShardMap) coreOwners() []int {
	owner := make([]int, m.Total)
	for s, sh := range m.Shards {
		for _, g := range sh.Global {
			owner[g] = s
		}
	}
	return owner
}

// JoinSummary describes a streamed distributed self-join after every pair
// has been delivered.
type JoinSummary struct {
	// Pairs is the number of pairs delivered to the callback.
	Pairs int64
	// Scatter counts the shards queried; Partial marks that some shard's
	// contribution is missing and FailedShards names the shards.
	*api.Scatter
}

// SelfJoinEach streams the exact merged distributed self-join to fn, one
// global pair (i < j, upload-order indexes) at a time, without buffering
// any shard's pair set. fn is called from a single goroutine at a time,
// in unspecified order.
//
// Dedup is positional rather than set-based: a pair within eps ≤ margin
// is always found by the shard owning the core of its lower-slab
// endpoint (that shard holds the other endpoint too, as core or replica
// — see the package comment), so the coordinator accepts each pair only
// from the shard owning its lowest-owner endpoint and needs no memory of
// what it has already seen. When the accepting shard is down its pairs
// are lost even if a neighbor also found them; the summary is marked
// Partial exactly as in SelfJoin.
func (c *Coordinator) SelfJoinEach(ctx context.Context, name string, q JoinQuery, fn func(i, j int)) (*JoinSummary, error) {
	sm, ok := c.Map(name)
	if !ok {
		return nil, NotFoundError{Name: name}
	}
	if !(q.Eps > 0) {
		return nil, QueryError{Msg: "eps must be positive"}
	}
	if q.Eps > sm.Margin {
		return nil, queryErrorf("eps %g exceeds the dataset's shard margin %g; re-upload with a larger margin", q.Eps, sm.Margin)
	}
	owner := sm.coreOwners()
	targets := sm.nonEmpty()
	var delivered int64
	funnel := pairs.NewFunnel(func(i, j int) {
		delivered++
		fn(i, j)
	})
	failed := c.scatter(ctx, "selfjoin", sm, targets, func(ctx context.Context, s int) error {
		sink := funnel.Handle()
		global := sm.Shards[s].Global
		return c.streamShardSelfJoin(ctx, sm, s, name, q, func(p [2]int) error {
			if p[0] < 0 || p[1] < 0 {
				return fmt.Errorf("negative pair %v from shard", p)
			}
			// Points past the map snapshot (appended after this query's
			// map was taken) have no global identity yet: skip the pair;
			// the next query, routed with the successor map, will see it.
			if p[0] >= len(global) || p[1] >= len(global) {
				return nil
			}
			gi, gj := global[p[0]], global[p[1]]
			if gi > gj {
				gi, gj = gj, gi
			}
			// Positional dedup: only the lowest-owner endpoint's shard
			// may report the pair.
			if o := min(owner[gi], owner[gj]); o != s {
				return nil
			}
			sink.Emit(gi, gj)
			return nil
		})
	})
	funnel.Close()
	if len(failed) == len(targets) && len(targets) > 0 {
		return nil, UnavailableError{Failed: failed}
	}
	return &JoinSummary{Pairs: delivered, Scatter: scattered(len(targets), failed)}, nil
}

// streamShardSelfJoin posts one shard's self-join with streaming
// requested and feeds every worker-local pair to accept as it arrives.
// Workers answering NDJSON deliver incrementally ([i,j] lines closed by a
// summary object); workers that ignore the stream flag and answer one
// {"pairs": …} object are consumed the same way, line by JSON value.
func (c *Coordinator) streamShardSelfJoin(ctx context.Context, sm *ShardMap, s int, name string, q JoinQuery, accept func(p [2]int) error) error {
	req := api.JoinParams{Eps: q.Eps, Metric: q.Metric, Algorithm: q.Algorithm, Workers: q.Workers, Stream: true}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.rc.Post(ctx, c.datasetURL(sm, s, name)+"/selfjoin", "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return workerError(resp)
	}
	return api.ReadStream(resp.Body, accept, func(raw json.RawMessage) error {
		// An object: a non-streaming worker's full answer, or a streaming
		// worker's closing summary (whose "pairs" is absent).
		var full api.JoinResponse
		if err := json.Unmarshal(raw, &full); err != nil {
			return err
		}
		for _, p := range full.Pairs {
			if err := accept(p); err != nil {
				return err
			}
		}
		return nil
	})
}
