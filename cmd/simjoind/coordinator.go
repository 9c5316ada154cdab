package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"simjoin/internal/cluster"
	"simjoin/internal/obsv"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

// coordServer is the HTTP face of coordinator mode: the worker REST API,
// answered by scatter-gather over the fleet. Query responses gain three
// fields — "shards", "partial" and "failed_shards" — so callers can see
// when a dead worker left the answer incomplete.
type coordServer struct {
	c *cluster.Coordinator
	m *metrics
	// tracer retains completed request traces — a coordinator trace holds
	// one "shard.<op>" child span per worker RPC. log, when non-nil, gets
	// one structured access-log line per request.
	tracer *trace.Tracer
	log    *slog.Logger
	// qlog is the coordinator-side query journal behind GET
	// /debug/queries; its records carry the fan-out width in Shards.
	qlog *querylog.Log
	// fanout observes the wall time of each scatter-gather operation
	// across the fleet, labeled by operation.
	fanout *obsv.HistogramVec
	// maxBody bounds request bodies (-max-body-bytes).
	maxBody int64
	// maxPairs, when > 0, is the admission budget (-max-pairs): a
	// distributed self-join whose summed per-shard estimate exceeds it
	// is refused with 429, or runs counting-only when the request sets
	// "degrade".
	maxPairs int64
	// debug additionally mounts net/http/pprof under /debug/pprof/.
	debug bool

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
	m := newMetrics()
	s := &coordServer{
		c: c, m: m, maxBody: defaultMaxBodyBytes, tracer: trace.New(defaultTraceCapacity),
		qlog:        querylog.New(0),
		stopWatches: make(chan struct{}),
		watches:     make(map[string]int),
	}
	m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { return float64(s.watchTotal()) })
	s.fanout = m.reg.NewHistogramVec("simjoind_fanout_duration_seconds",
		"Scatter-gather fan-out latency across the worker fleet by operation.", "op", obsv.LatencyBuckets())
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

// handler wires up the coordinator routes with the same tracing +
// access-log + metrics middleware the worker uses.
func (s *coordServer) handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(s.m, s.tracer, s.log, pattern, h))
	}
	handle("GET /healthz", s.handleHealthz)
	handle("GET /datasets", s.handleList)
	handle("GET /datasets/{name}", s.handleGetDataset)
	handle("GET /datasets/{name}/explain", s.handleExplain)
	handle("PUT /datasets/{name}", s.handlePut)
	handle("DELETE /datasets/{name}", s.handleDelete)
	handle("POST /datasets/{name}/selfjoin", s.handleSelfJoin)
	handle("POST /datasets/{name}/range", s.handleRange)
	handle("POST /datasets/{name}/knn", s.handleKNN)
	handle("POST /datasets/{name}/points", s.handleAppend)
	handle("POST /datasets/{name}/watch", s.handleWatch)
	handle("POST /join", unsupported("two-set joins"))
	mux.Handle("GET /metrics", s.m.promHandler())
	mux.HandleFunc("GET /debug/vars", s.m.varsHandler)
	mux.HandleFunc("GET /debug/traces", tracesHandler(s.tracer))
	mux.HandleFunc("GET /debug/traces/{id}", s.handleStitchedTrace)
	mux.HandleFunc("GET /debug/queries", queriesHandler(s.qlog))
	if s.debug {
		mountPprof(mux)
	}
	return mux
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
		httpError(w, http.StatusNotFound, "no trace %q retained anywhere in the cluster", id)
		return
	}
	writeJSON(w, st)
}

// unsupported answers 501 for worker endpoints the cluster layer does
// not (yet) distribute.
func unsupported(what string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotImplemented, "%s not supported in coordinator mode", what)
	}
}

// coordError maps cluster error types onto HTTP statuses.
func coordError(w http.ResponseWriter, err error) {
	var nfe cluster.NotFoundError
	var qe cluster.QueryError
	var ue cluster.UnavailableError
	switch {
	case errors.As(err, &nfe):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.As(err, &qe):
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &ue):
		httpError(w, http.StatusBadGateway, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleHealthz reports the coordinator as live plus each worker's
// health, "degraded" when any worker is down.
func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers := s.c.Health(r.Context())
	status := "ok"
	for _, wh := range workers {
		if !wh.OK {
			status = "degraded"
		}
	}
	writeJSON(w, map[string]any{
		"status":   status,
		"datasets": len(s.c.List()),
		"workers":  workers,
		"build":    buildVersion,
	})
}

func (s *coordServer) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.c.List())
}

func (s *coordServer) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		httpError(w, http.StatusBadRequest, "dataset name required")
		return
	}
	margin := 0.0
	if v := r.URL.Query().Get("margin"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil || !(parsed > 0) {
			httpError(w, http.StatusBadRequest, "margin must be a positive number, got %q", v)
			return
		}
		margin = parsed
	}
	pts, ok := decodeUpload(w, r, s.maxBody)
	if !ok {
		return
	}
	defer s.observeFanout("upload", time.Now())
	info, err := s.c.Upload(r.Context(), name, pts, margin)
	if err != nil {
		coordError(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *coordServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.c.Delete(r.Context(), r.PathValue("name")); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// coordJoinResponse is joinResponse plus the cluster degradation fields.
type coordJoinResponse struct {
	Pairs        [][2]int             `json:"pairs"`
	Total        int64                `json:"total"`
	Truncated    bool                 `json:"truncated"`
	ElapsedMS    float64              `json:"elapsed_ms"`
	Shards       int                  `json:"shards"`
	Partial      bool                 `json:"partial"`
	FailedShards []cluster.ShardError `json:"failed_shards,omitempty"`
	// EstimatedPairs is the sum of the shards' pre-run predictions,
	// present when the admission budget priced the query.
	EstimatedPairs *int64 `json:"estimated_pairs,omitempty"`
	// Degraded marks a counting-only run forced by the admission budget.
	Degraded bool `json:"degraded,omitempty"`
}

// admitSelfJoin prices a distributed self-join against the -max-pairs
// budget by scattering an estimate round (one sketch scan per worker).
// It returns the summed prediction (nil when no budget is set or no
// shard answered — pricing failures never block the query, they just
// forgo admission) and whether the query is over budget.
func (s *coordServer) admitSelfJoin(r *http.Request, name string, p joinParams) (*int64, bool) {
	if s.maxPairs <= 0 || !(p.Eps > 0) {
		return nil, false
	}
	defer s.observeFanout("estimate", time.Now())
	est, err := s.c.EstimateSelfJoin(r.Context(), name, p.Eps, p.Metric)
	if err != nil {
		return nil, false
	}
	source := "sample"
	for _, sh := range est.Shards {
		if sh.Sketched {
			source = "sketch"
			break
		}
	}
	s.m.estimateRequests.With(source).Inc()
	total := est.Pairs
	return &total, total > s.maxPairs
}

func (s *coordServer) handleSelfJoin(w http.ResponseWriter, r *http.Request) {
	var p joinParams
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&p); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	name := r.PathValue("name")
	q := cluster.JoinQuery{
		Eps:       p.Eps,
		Metric:    p.Metric,
		Algorithm: p.Algorithm,
		Workers:   p.Workers,
	}
	est, over := s.admitSelfJoin(r, name, p)
	rec := querylog.Record{
		Kind: "selfjoin", Dataset: name,
		Eps: p.Eps, Metric: p.Metric, Algorithm: p.Algorithm,
		Stream: p.Stream, EstimatedPairs: -1, TraceID: traceIDOf(r),
	}
	if est != nil {
		rec.EstimatedPairs = *est
	}
	recStart := time.Now()
	if over {
		if !p.Degrade {
			rejectOverBudget(w, s.m, *est, s.maxPairs)
			recordFailure(s.qlog, s.m, rec, recStart, querylog.OutcomeRejected, nil)
			return
		}
		s.m.estimateDegraded.Inc()
		start := time.Now()
		res, err := s.c.SelfJoinEach(r.Context(), name, q, func(i, j int) {})
		s.observeFanout("selfjoin", start)
		if err != nil {
			coordError(w, err)
			recordFailure(s.qlog, s.m, rec, recStart, querylog.OutcomeError, err)
			return
		}
		s.m.observeEstimateRatio(*est, res.Pairs)
		rec.ActualPairs, rec.Shards = res.Pairs, res.Shards
		rec.ElapsedNS = int64(time.Since(recStart))
		rec.Outcome = querylog.OutcomeDegraded
		recordQuery(s.qlog, s.m, rec)
		writeJSON(w, coordJoinResponse{
			Pairs:          [][2]int{},
			Total:          res.Pairs,
			ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
			Shards:         res.Shards,
			Partial:        res.Partial,
			FailedShards:   res.Failed,
			EstimatedPairs: est,
			Degraded:       true,
		})
		return
	}
	if p.Stream {
		s.streamSelfJoin(w, r, p, q, rec)
		return
	}
	start := time.Now()
	res, err := s.c.SelfJoin(r.Context(), name, q)
	s.observeFanout("selfjoin", start)
	if err != nil {
		coordError(w, err)
		recordFailure(s.qlog, s.m, rec, recStart, querylog.OutcomeError, err)
		return
	}
	out := coordJoinResponse{
		Pairs:          res.Pairs,
		Total:          int64(len(res.Pairs)),
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
		Shards:         res.Shards,
		Partial:        res.Partial,
		FailedShards:   res.Failed,
		EstimatedPairs: est,
	}
	if est != nil {
		s.m.observeEstimateRatio(*est, out.Total)
	}
	rec.ActualPairs, rec.Shards = out.Total, res.Shards
	rec.ElapsedNS = int64(time.Since(recStart))
	rec.Outcome = querylog.OutcomeOK
	recordQuery(s.qlog, s.m, rec)
	if p.MaxPairs > 0 && len(out.Pairs) > p.MaxPairs {
		out.Pairs = out.Pairs[:p.MaxPairs]
		out.Truncated = true
	}
	if out.Pairs == nil {
		out.Pairs = [][2]int{}
	}
	writeJSON(w, out)
}

// streamSelfJoin answers a distributed self-join as NDJSON: pairs flow
// from the shards through the coordinator to the client as they arrive —
// end to end, no full pair set is buffered anywhere. The closing summary
// object carries the cluster degradation fields (and estimated_pairs
// when the query was priced). rec is the caller's pre-filled journal
// record; the stream's outcome is journaled here where the totals are
// known.
func (s *coordServer) streamSelfJoin(w http.ResponseWriter, r *http.Request, p joinParams, q cluster.JoinQuery, rec querylog.Record) {
	s.m.streamRequests.With("POST /datasets/{name}/selfjoin").Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	flusher, _ := w.(http.Flusher)
	start := time.Now()
	var sent int64
	res, err := s.c.SelfJoinEach(r.Context(), r.PathValue("name"), q, func(i, j int) {
		if p.MaxPairs > 0 && sent >= int64(p.MaxPairs) {
			return
		}
		sent++
		fmt.Fprintf(bw, "[%d,%d]\n", i, j)
		if sent%streamFlushEvery == 0 {
			_ = bw.Flush()
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
	s.observeFanout("selfjoin", start)
	if err != nil {
		// SelfJoinEach fails before delivering any pair (validation, or
		// every shard down), so a plain error answer is still possible.
		coordError(w, err)
		recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeError, err)
		return
	}
	if rec.EstimatedPairs >= 0 {
		s.m.observeEstimateRatio(rec.EstimatedPairs, res.Pairs)
	}
	rec.ActualPairs, rec.Shards = res.Pairs, res.Shards
	rec.ElapsedNS = int64(time.Since(start))
	rec.Outcome = querylog.OutcomeOK
	recordQuery(s.qlog, s.m, rec)
	s.m.streamPairs.Add(sent)
	summary := map[string]any{
		"total":         res.Pairs,
		"truncated":     p.MaxPairs > 0 && res.Pairs > int64(p.MaxPairs),
		"elapsed_ms":    float64(time.Since(start).Microseconds()) / 1000,
		"shards":        res.Shards,
		"partial":       res.Partial,
		"failed_shards": res.Failed,
	}
	if rec.EstimatedPairs >= 0 {
		summary["estimated_pairs"] = rec.EstimatedPairs
	}
	line, _ := json.Marshal(summary)
	bw.Write(line)
	bw.WriteByte('\n')
	_ = bw.Flush()
}

func (s *coordServer) handleRange(w http.ResponseWriter, r *http.Request) {
	var q pointQuery
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	start := time.Now()
	defer s.observeFanout("range", start)
	res, err := s.c.Range(r.Context(), r.PathValue("name"), q.Point, q.Radius, q.Metric)
	if err != nil {
		coordError(w, err)
		return
	}
	idx := res.Indexes
	if idx == nil {
		idx = []int{}
	}
	recordQuery(s.qlog, s.m, querylog.Record{
		Kind: "range", Dataset: r.PathValue("name"), Eps: q.Radius, Metric: q.Metric,
		EstimatedPairs: -1, ActualPairs: int64(len(idx)), Shards: res.Shards,
		ElapsedNS: int64(time.Since(start)), TraceID: traceIDOf(r), Outcome: querylog.OutcomeOK,
	})
	writeJSON(w, map[string]any{
		"indexes":       idx,
		"shards":        res.Shards,
		"partial":       res.Partial,
		"failed_shards": res.Failed,
	})
}

func (s *coordServer) handleKNN(w http.ResponseWriter, r *http.Request) {
	var q pointQuery
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	start := time.Now()
	defer s.observeFanout("knn", start)
	res, err := s.c.KNN(r.Context(), r.PathValue("name"), q.Point, q.K, q.Metric)
	if err != nil {
		coordError(w, err)
		return
	}
	nbrs := res.Neighbors
	if nbrs == nil {
		nbrs = []cluster.Neighbor{}
	}
	recordQuery(s.qlog, s.m, querylog.Record{
		Kind: "knn", Dataset: r.PathValue("name"), Metric: q.Metric,
		EstimatedPairs: -1, ActualPairs: int64(len(nbrs)), Shards: res.Shards,
		ElapsedNS: int64(time.Since(start)), TraceID: traceIDOf(r), Outcome: querylog.OutcomeOK,
	})
	writeJSON(w, map[string]any{
		"neighbors":     nbrs,
		"shards":        res.Shards,
		"partial":       res.Partial,
		"failed_shards": res.Failed,
	})
}
