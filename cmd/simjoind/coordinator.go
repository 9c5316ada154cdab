package main

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/cluster"
	"simjoin/internal/obsv"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

// coordServer is the HTTP face of coordinator mode: the worker REST API,
// answered by scatter-gather over the fleet. Query responses gain the
// api.Scatter block, so callers can see when a dead worker left the
// answer incomplete; a coordinator trace holds one "shard.<op>" child
// span per worker RPC, and its journal records carry the fan-out width.
type coordServer struct {
	core
	c *cluster.Coordinator
	// fanout observes the wall time of each scatter-gather operation
	// across the fleet, labeled by operation.
	fanout *obsv.HistogramVec

	// stopWatches closes when graceful shutdown begins, ending every
	// standing-query watch stream with a terminal event so the HTTP
	// drain is not held open; stopOnce makes shutdownWatches reentrant.
	stopWatches chan struct{}
	stopOnce    sync.Once

	// watchMu guards watches, the active standing-query count per
	// dataset (reported by GET /datasets/{name}).
	watchMu sync.Mutex
	watches map[string]int
}

func newCoordServer(c *cluster.Coordinator) *coordServer {
	s := &coordServer{
		core: newCore(coordStatus), c: c,
		stopWatches: make(chan struct{}),
		watches:     make(map[string]int),
	}
	m := s.m
	m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { return float64(s.watchTotal()) })
	s.fanout = m.reg.NewHistogramVec("simjoind_fanout_duration_seconds",
		"Scatter-gather fan-out latency across the worker fleet by operation.", obsv.LatencyBuckets(), "op")
	// Health of every worker, probed at scrape time: 1 up, 0 down.
	m.reg.NewGaugeVecFunc("simjoind_worker_up",
		"Per-worker health as seen by the coordinator (1 = up).", "worker",
		func() map[string]float64 {
			ctx, cancel := context.WithTimeout(context.Background(), healthProbeTimeout)
			defer cancel()
			out := make(map[string]float64, len(c.Workers()))
			for _, wh := range c.Health(ctx) {
				v := 0.0
				if wh.OK {
					v = 1
				}
				out[wh.URL] = v
			}
			return out
		})
	// The scatter client's retry tally — rising values mean a flaky fleet.
	m.reg.NewCounterFunc("simjoind_rclient_retries_total",
		"HTTP retry attempts the coordinator's scatter client has made.",
		c.Client().Retries)
	return s
}

// healthProbeTimeout bounds the worker health sweep a /metrics scrape
// triggers.
const healthProbeTimeout = 2 * time.Second

// observeFanout charges op's scatter wall time to the fan-out histogram.
func (s *coordServer) observeFanout(op string, start time.Time) {
	s.fanout.With(op).Observe(time.Since(start).Seconds())
}

func (s *coordServer) handler() http.Handler {
	return s.mount(api.Routes{
		Healthz: s.handleHealthz, List: s.handleList, Get: s.handleGetDataset, Explain: s.handleExplain,
		Put: s.handlePut, Delete: s.handleDelete, Append: s.handleAppend, Watch: s.handleWatch,
		SelfJoin: s.handleShardedSelfJoin, Range: s.handleRange, KNN: s.handleKNN,
		// Two-set joins are the one worker endpoint the cluster layer does
		// not (yet) distribute.
		Join: func(w http.ResponseWriter, r *http.Request) {
			api.Error(w, http.StatusNotImplemented, "two-set joins not supported in coordinator mode")
		},
		TraceByID: s.handleStitchedTrace,
	})
}

// handleStitchedTrace serves the coordinator's GET /debug/traces/{id}:
// the coordinator's own retained spans for the trace plus every
// worker's, fetched live and stitched into one distributed span tree.
// Like the other debug routes it is outside the instrument middleware,
// so fetching a trace neither mints a new one nor minted attempt spans
// on the worker RPCs.
func (s *coordServer) handleStitchedTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.c.FetchTrace(r.Context(), id, trace.Collect(s.tracer.Traces(), id))
	if len(st.Spans) == 0 {
		api.Error(w, http.StatusNotFound, "no trace %q retained anywhere in the cluster", id)
		return
	}
	api.WriteJSON(w, st)
}

// coordStatus maps cluster error types onto HTTP statuses.
func coordStatus(err error) int {
	var nfe cluster.NotFoundError
	var qe cluster.QueryError
	var ue cluster.UnavailableError
	switch {
	case errors.As(err, &nfe):
		return http.StatusNotFound
	case errors.As(err, &qe):
		return http.StatusBadRequest
	case errors.As(err, &ue):
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// handleHealthz reports the coordinator as live plus each worker's
// health, "degraded" when any worker is down.
func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := api.Health{Status: "ok", Build: buildVersion}
	out.StoreHealth = &api.StoreHealth{Datasets: len(s.c.List()), Workers: s.c.Health(r.Context())}
	for _, wh := range out.Workers {
		if !wh.OK {
			out.Status = "degraded"
		}
	}
	api.WriteJSON(w, out)
}

func (s *coordServer) handleList(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, s.c.List())
}

func (s *coordServer) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		api.Error(w, http.StatusBadRequest, "dataset name required")
		return
	}
	margin := 0.0
	if v := r.URL.Query().Get("margin"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil || !(parsed > 0) {
			api.Error(w, http.StatusBadRequest, "margin must be a positive number, got %q", v)
			return
		}
		margin = parsed
	}
	up, ok := decodeUpload(w, r, s.maxBody)
	if !ok {
		return
	}
	defer s.observeFanout("upload", time.Now())
	info, err := s.c.Upload(r.Context(), name, up.Rows(), margin)
	if err != nil {
		s.fail(w, err)
		return
	}
	api.WriteJSON(w, info)
}

func (s *coordServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.c.Delete(r.Context(), r.PathValue("name")); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// estimate scatters one join-size estimate round: one sketch read per
// worker.
func (s *coordServer) estimate(ctx context.Context, name string, m simjoin.Metric, eps float64) (*cluster.EstimateResult, error) {
	defer s.observeFanout("estimate", time.Now())
	return s.c.EstimateSelfJoin(ctx, name, eps, m.String())
}

// handleShardedSelfJoin runs the distributed self-join: pairs flow from the
// shards through the coordinator to a streaming client as they arrive —
// end to end, no full pair set is buffered anywhere.
func (s *coordServer) handleShardedSelfJoin(w http.ResponseWriter, r *http.Request) {
	var p api.JoinParams
	if !api.Decode(w, r, s.maxBody, &p) {
		return
	}
	name := r.PathValue("name")
	query := func(opt simjoin.Options) cluster.JoinQuery {
		return cluster.JoinQuery{Eps: opt.Eps, Metric: opt.Metric.String(), Algorithm: string(opt.Algorithm), Workers: opt.Workers}
	}
	each := func(opt simjoin.Options, emit func(i, j int)) (joinRun, error) {
		start := time.Now()
		defer s.observeFanout("selfjoin", start)
		sum, err := s.c.SelfJoinEach(r.Context(), name, query(opt), emit)
		if err != nil {
			return joinRun{}, err
		}
		return joinRun{total: sum.Pairs, elapsed: time.Since(start), scatter: sum.Scatter}, nil
	}
	s.runJoin(w, r, "POST /datasets/{name}/selfjoin", querylog.Record{Kind: "selfjoin", Dataset: name}, p, joinCalls{
		// Only a budget is worth an estimate round trip, and a pricing
		// failure never blocks the query — it just forgoes admission.
		price: func(m simjoin.Metric, eps float64) int64 {
			if s.maxPairs <= 0 {
				return -1
			}
			est, err := s.estimate(r.Context(), name, m, eps)
			if err != nil {
				return -1
			}
			return est.Pairs
		},
		collect: func(opt simjoin.Options) (joinRun, error) {
			if opt.CollectPairs != nil && !*opt.CollectPairs {
				return each(opt, func(i, j int) {})
			}
			start := time.Now()
			defer s.observeFanout("selfjoin", start)
			res, err := s.c.SelfJoin(r.Context(), name, query(opt))
			if err != nil {
				return joinRun{}, err
			}
			return joinRun{pairs: res.Pairs, total: int64(len(res.Pairs)), elapsed: time.Since(start), scatter: res.Scatter}, nil
		},
		each: each,
	})
}

func (s *coordServer) handleRange(w http.ResponseWriter, r *http.Request) {
	s.pointQuery(w, r, "range", func(q api.PointQuery, m simjoin.Metric) (pointRun, error) {
		defer s.observeFanout("range", time.Now())
		res, err := s.c.Range(r.Context(), r.PathValue("name"), q.Point, q.Radius, m.String())
		if err != nil {
			return pointRun{}, err
		}
		return pointRun{answer: res, n: len(res.Indexes), scatter: res.Scatter}, nil
	})
}

func (s *coordServer) handleKNN(w http.ResponseWriter, r *http.Request) {
	s.pointQuery(w, r, "knn", func(q api.PointQuery, m simjoin.Metric) (pointRun, error) {
		defer s.observeFanout("knn", time.Now())
		res, err := s.c.KNN(r.Context(), r.PathValue("name"), q.Point, q.K, m.String())
		if err != nil {
			return pointRun{}, err
		}
		return pointRun{answer: res, n: len(res.Neighbors), scatter: res.Scatter}, nil
	})
}
