package main

import (
	"context"
	"errors"
	"net/http"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/cluster"
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
)

// handleAppend distributes POST /datasets/{name}/points: the batch is
// routed to its shards under the original cuts and appended on each
// worker, which in turn feeds every standing query watching the
// dataset.
func (s *coordServer) handleAppend(w http.ResponseWriter, r *http.Request) {
	pts, ok := decodeUpload(w, r, s.maxBody)
	if !ok {
		return
	}
	defer s.observeFanout("append", time.Now())
	res, err := s.c.Append(r.Context(), r.PathValue("name"), pts)
	if err != nil {
		s.fail(w, err)
		return
	}
	api.WriteJSON(w, res)
}

// handleGetDataset answers GET /datasets/{name} from the shard map: the
// dataset's global shape, how it is spread over the fleet, and how many
// standing queries are watching it through this coordinator. With ?eps=
// (and optional &metric=) the answer gains an "estimate" block — the
// summed predicted self-join size plus each shard's own estimate,
// gathered from the workers' sketches in one scatter.
func (s *coordServer) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sm, ok := s.c.Map(name)
	if !ok {
		api.Error(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	layout := api.ShardLayout{Margin: sm.Margin, Shards: len(sm.Shards), Watches: s.watchCount(name)}
	for _, sh := range sm.Shards {
		layout.Stored += len(sh.Global)
	}
	out := api.DatasetDetail{DatasetInfo: api.DatasetInfo{Name: name, Len: sm.Total, Dims: sm.Dims}, ShardLayout: &layout}
	eps, m, ok := estimateParams(w, r, false)
	if !ok {
		return
	}
	if eps > 0 {
		est, err := s.estimate(r.Context(), name, m, eps)
		if err != nil {
			s.fail(w, err)
			return
		}
		out.Estimate = &api.Estimate{Eps: eps, Pairs: est.Pairs, ShardEstimates: &est.ShardEstimates}
	}
	api.WriteJSON(w, out)
}

// addWatch / removeWatch / watchCount maintain the per-dataset tally of
// standing queries flowing through this coordinator.
func (s *coordServer) addWatch(name string) {
	s.watchMu.Lock()
	s.watches[name]++
	s.watchMu.Unlock()
}

func (s *coordServer) removeWatch(name string) {
	s.watchMu.Lock()
	if s.watches[name]--; s.watches[name] <= 0 {
		delete(s.watches, name)
	}
	s.watchMu.Unlock()
}

func (s *coordServer) watchCount(name string) int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.watches[name]
}

// watchTotal is the active standing-query count across all datasets,
// for the coordinator's live-subscription gauge.
func (s *coordServer) watchTotal() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	n := 0
	for _, c := range s.watches {
		n += c
	}
	return n
}

// shutdownWatches ends every standing-query stream with a terminal
// "server shutting down" event, so graceful shutdown is not held open
// by long-lived watches. Safe to call more than once.
func (s *coordServer) shutdownWatches() {
	s.stopOnce.Do(func() { close(s.stopWatches) })
}

// handleWatch serves the coordinator's POST /datasets/{name}/watch: the
// same NDJSON contract as a worker, but over global upload-order
// indexes, fed by one watch stream per shard (see cluster.Watch).
// Self-join only; "after" supports exactly the two coordinator cursors
// — omitted (live: pairs created from now on) and 0 (full replay first)
// — because finer-grained resume lives on the workers, which the
// coordinator reconnects to with their own cursors automatically.
func (s *coordServer) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, metric, ok := s.decodeWatch(w, r)
	if !ok {
		return
	}
	if req.Other != "" {
		api.Error(w, http.StatusNotImplemented, "two-set watches not supported in coordinator mode")
		return
	}
	if req.After != nil && *req.After != 0 {
		api.Error(w, http.StatusBadRequest, `coordinator watches support "after" omitted (live) or 0 (full replay), got %d`, *req.After)
		return
	}
	// Validate everything cluster.Watch would reject before committing
	// to a streaming 200.
	sm, ok := s.c.Map(name)
	if !ok {
		api.Error(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	if req.Eps > sm.Margin {
		api.Error(w, http.StatusBadRequest, "eps %g exceeds the dataset's shard margin %g; re-upload with a larger margin", req.Eps, sm.Margin)
		return
	}

	s.addWatch(name)
	defer s.removeWatch(name)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.stopWatches:
			cancel()
		case <-ctx.Done():
		}
	}()

	hello := api.WatchHello{Dataset: name, Seq: sm.Total, Eps: req.Eps, Metric: metric.String()}
	s.watch(w, r, querylog.Record{Shards: len(sm.Shards)}, hello, func(deliver func([][2]int, api.WatchBatch) bool) string {
		q := cluster.JoinQuery{Eps: req.Eps, Metric: req.Metric}
		reason, err := s.c.Watch(ctx, name, q, req.After != nil, func(ev cluster.WatchEvent) bool {
			return deliver(ev.Pairs, api.WatchBatch{Shard: &ev.Shard, Seq: ev.Seq, Added: ev.Added, CatchUp: ev.CatchUp})
		})
		var nfe cluster.NotFoundError
		switch {
		case errors.As(err, &nfe):
			// The dataset vanished between the pre-check and the watch.
			return live.ReasonDeleted
		case errors.Is(err, context.Canceled):
			select {
			case <-s.stopWatches:
				return live.ReasonShutdown
			default:
				// The client went away; nobody is reading an end event.
			}
		}
		return reason
	})
}
