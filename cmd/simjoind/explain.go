package main

import (
	"net/http"

	"simjoin"
	"simjoin/internal/api"
)

// handleExplain serves GET /datasets/{name}/explain?eps=…[&metric=…]
// [&algorithm=…] on a worker: the library's EXPLAIN — the engine that
// would run and the size prediction — without executing the join.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(w, name)
	if !ok {
		return
	}
	eps, m, ok := estimateParams(w, r, true)
	if !ok {
		return
	}
	ex, err := simjoin.Explain(e.dataset(), simjoin.Options{Eps: eps, Metric: m, Algorithm: simjoin.Algorithm(r.URL.Query().Get("algorithm"))})
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.m.estimateRequests.Inc()
	api.WriteJSON(w, api.Explain{Dataset: name, Eps: ex.Eps, Metric: ex.Metric.String(), LocalExplain: &api.LocalExplain{
		Requested: string(ex.Requested),
		Algorithm: string(ex.Algorithm),
		Keys:      ex.Keys,
		Plan: api.ExplainPlan{
			Algorithm:      string(ex.Plan.Algorithm),
			EstimatedPairs: ex.Plan.EstimatedPairs,
			Selectivity:    ex.Plan.Selectivity,
		},
	}})
}

// handleExplain serves the coordinator's GET /datasets/{name}/explain
// ?eps=…[&metric=…]: the distributed EXPLAIN — one estimate scatter over
// the fleet, answered as the summed prediction plus each shard's local
// plan (predicted size, selectivity and the engine its planner would
// pick).
func (s *coordServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	eps, m, ok := estimateParams(w, r, true)
	if !ok {
		return
	}
	est, err := s.estimate(r.Context(), name, m, eps)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.estimateRequests.Inc()
	api.WriteJSON(w, api.Explain{Dataset: name, Eps: eps, Metric: m.String(), ShardExplain: &api.ShardExplain{
		EstimatedPairs: est.Pairs,
		Shards:         len(est.PerShard),
		ShardEstimates: est.ShardEstimates,
	}})
}
