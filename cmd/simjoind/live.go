package main

import (
	"net/http"
	"time"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
)

// liveHooks feeds the live engine's observability callbacks into the
// server's live_* metric series.
func liveHooks(m *metrics) live.Hooks {
	return live.Hooks{
		Append: func(d time.Duration, points int) { m.liveAppend.Observe(d.Seconds()) },
		Batch: func(pairs int) {
			m.liveBatches.Inc()
			m.liveDeltaPairs.Add(int64(pairs))
		},
		CatchUp:    func(pairs int) { m.liveCatchupPairs.Add(int64(pairs)) },
		Subscribed: func() { m.liveSubscribed.Inc() },
		Evicted:    func() { m.liveEvictions.Inc() },
	}
}

// liveError maps engine errors onto HTTP statuses.
func liveError(w http.ResponseWriter, err error) {
	switch err.(type) {
	case live.UnknownDatasetError:
		api.Error(w, http.StatusNotFound, "%v", err)
	case live.QueryError:
		api.Error(w, http.StatusBadRequest, "%v", err)
	default:
		api.Error(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleWatch registers a standing query and streams its delta batches
// (see api.WatchStream) until the client disconnects, the dataset goes
// away, the subscriber falls too far behind, or the server shuts down.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(w, name)
	if !ok {
		return
	}
	req, metric, ok := s.decodeWatch(w, r)
	if !ok {
		return
	}
	var other *entry
	if req.Other != "" {
		if other, ok = s.lookup(w, req.Other); !ok {
			return
		}
	}
	// Seed live tracking under each entry's lock (never both at once), so
	// the live indexes start at snapshots consistent with the append
	// notifications that follow.
	e.seedLive(s.live, name, req.Eps)
	if other != nil {
		other.seedLive(s.live, req.Other, req.Eps)
	}
	sub, err := s.live.Subscribe(
		live.Query{Dataset: name, Other: req.Other, Eps: req.Eps, Metric: metric},
		live.Options{Buffer: req.Buffer, After: req.After, AfterOther: req.AfterOther},
	)
	if err != nil {
		liveError(w, err)
		return
	}
	defer s.live.Unsubscribe(sub.ID())

	hello := api.WatchHello{Dataset: name, Seq: sub.BaseSeq(), Eps: req.Eps, Metric: metric.String(), Other: req.Other}
	// otherSeq marks an event with the second set's cursor on a two-set
	// watch.
	otherSeq := func(seq int) *int {
		if req.Other == "" {
			return nil
		}
		return &seq
	}
	hello.SeqOther = otherSeq(sub.BaseSeqOther())
	s.watch(w, r, querylog.Record{Dataset2: req.Other}, hello, func(deliver func([][2]int, api.WatchBatch) bool) string {
		for {
			select {
			case ev, chOpen := <-sub.Events():
				if !chOpen {
					return sub.Reason()
				}
				if !deliver(ev.Pairs, api.WatchBatch{Seq: ev.Seq, Added: ev.Added, SeqOther: otherSeq(ev.SeqOther), CatchUp: ev.CatchUp}) {
					return ""
				}
			case <-r.Context().Done():
				return ""
			}
		}
	})
}

// handleGetDataset answers GET /datasets/{name}: the dataset's shape
// plus its durable footprint, live-engine state, and sketch metadata —
// the single-dataset introspection the aggregate list can't give. With
// ?eps= (and optional &metric=) the answer gains an "estimate" block:
// the planner's predicted self-join size at that threshold, which is
// also how a coordinator prices a distributed query shard by shard.
func (s *server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(w, name)
	if !ok {
		return
	}
	ds := e.dataset()
	stats := s.live.Stats(name)
	out := api.DatasetDetail{DatasetInfo: api.DatasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()}, Live: &stats}
	if s.st != nil {
		if wb, ok := s.st.DatasetWALBytes(name); ok {
			out.WALBytes = &wb
		}
	}
	sk := ds.Sketch()
	out.Sketch = &api.SketchInfo{Points: sk.Points(), Reservoir: sk.Reservoir(), SampledPairs: sk.SampledPairs()}
	eps, m, ok := estimateParams(w, r, false)
	if !ok {
		return
	}
	if eps > 0 {
		pl := simjoin.PlanSelfJoin(ds, m, eps)
		s.m.estimateRequests.Inc()
		out.Estimate = &api.Estimate{Eps: eps, Pairs: pl.EstimatedPairs, LocalPlan: &api.LocalPlan{
			Metric: m.String(), Algorithm: string(pl.Algorithm), Selectivity: pl.Selectivity,
		}}
	}
	api.WriteJSON(w, out)
}
