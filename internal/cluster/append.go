package cluster

import (
	"context"

	"simjoin/internal/api"
)

// Append routes pts — numbered after the dataset's current points — to
// their shards under the original cuts and replication margin, growing
// each worker's slice in place through POST /points (or creating it
// with PUT on a shard that was empty until now). The successor shard
// map is registered before any worker is contacted, so standing-query
// watchers can translate the new points' local indexes the moment a
// worker starts delivering them.
//
// The answer's FailedShards lists shards that did not durably receive
// their slice of the batch; the shard map is swapped in regardless
// (degraded, not rolled back), so queries against a failed shard simply
// miss those points until the worker recovers — retrying the append
// would double-register the points everywhere else.
func (c *Coordinator) Append(ctx context.Context, name string, pts [][]float64) (*api.AppendResponse, error) {
	if len(pts) == 0 {
		return nil, QueryError{Msg: "no points in append"}
	}
	// One extend at a time: concurrent extends of the same base map
	// would hand out overlapping global indexes.
	c.apMu.Lock()
	defer c.apMu.Unlock()
	old, ok := c.Map(name)
	if !ok {
		return nil, NotFoundError{Name: name}
	}
	for i, p := range pts {
		if len(p) != old.Dims {
			return nil, queryErrorf("point %d has %d dims, dataset has %d", i, len(p), old.Dims)
		}
	}
	sm, shardPts := old.extend(pts)
	c.mu.Lock()
	c.sets[name] = sm
	c.mu.Unlock()

	targets := make([]int, 0, len(sm.Shards))
	for s := range sm.Shards {
		if len(shardPts[s]) > 0 {
			targets = append(targets, s)
		}
	}
	failed := c.scatter(ctx, "append", sm, targets, func(ctx context.Context, s int) error {
		url := c.datasetURL(sm, s, name)
		if len(old.Shards[s].Global) == 0 {
			// The shard held nothing before this batch, so the worker has
			// no dataset to append to: create it.
			return sendPoints(ctx, c.rc.Put, url, shardPts[s])
		}
		return sendPoints(ctx, c.rc.Post, url+"/points", shardPts[s])
	})
	return &api.AppendResponse{
		DatasetInfo:   api.DatasetInfo{Name: name, Len: sm.Total, Dims: sm.Dims},
		ShardFailures: &scattered(len(targets), failed).ShardFailures,
	}, nil
}
