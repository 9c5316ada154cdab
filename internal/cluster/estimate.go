package cluster

import (
	"context"
	"fmt"
	"net/url"
	"slices"
	"strconv"

	"simjoin/internal/api"
)

// EstimateResult is a merged distributed join-size estimate. Pairs is
// the sum of the live shards' local estimates. Boundary replicas make it
// a slight over-estimate of the global result (a cross-slab pair is
// predicted by both slabs that replicate it), which is the safe
// direction for admission control.
type EstimateResult struct {
	Pairs int64
	api.ShardEstimates
}

// EstimateSelfJoin scatters a join-size estimate to every non-empty
// shard and sums the answers — the coordinator's pricing pass: every
// worker answers from its dataset's resident sketch without touching the
// raw points, so the round trip costs one sketch read per shard.
func (c *Coordinator) EstimateSelfJoin(ctx context.Context, name string, eps float64, metric string) (*EstimateResult, error) {
	sm, ok := c.Map(name)
	if !ok {
		return nil, NotFoundError{Name: name}
	}
	if !(eps > 0) {
		return nil, QueryError{Msg: "eps must be positive"}
	}
	targets := sm.nonEmpty()
	out := make([]api.ShardEstimate, len(targets))
	failed := c.scatter(ctx, "estimate", sm, targets, func(ctx context.Context, s int) error {
		var resp api.DatasetDetail
		u := c.datasetURL(sm, s, name) + "?eps=" + strconv.FormatFloat(eps, 'g', -1, 64)
		if metric != "" {
			u += "&metric=" + url.QueryEscape(metric)
		}
		r, err := c.rc.Get(ctx, u)
		if err != nil {
			return err
		}
		if err := drainResponse(r, &resp); err != nil {
			return err
		}
		if resp.Estimate == nil {
			return fmt.Errorf("worker answered without an estimate")
		}
		se := api.ShardEstimate{Shard: s, URL: sm.Shards[s].URL, Points: resp.Len, Pairs: resp.Estimate.Pairs}
		if pl := resp.Estimate.LocalPlan; pl != nil {
			se.Selectivity, se.Algorithm = pl.Selectivity, pl.Algorithm
		}
		out[slices.Index(targets, s)] = se
		return nil
	})
	if len(failed) == len(targets) && len(targets) > 0 {
		return nil, UnavailableError{Failed: failed}
	}
	for _, f := range failed {
		out[slices.Index(targets, f.Shard)] = api.ShardEstimate{Shard: f.Shard, URL: f.URL, Err: f.Err}
	}
	res := &EstimateResult{ShardEstimates: api.ShardEstimates{PerShard: out, Partial: len(failed) > 0}}
	for _, se := range out {
		if se.Err == "" {
			res.Pairs += se.Pairs
		}
	}
	return res, nil
}
