package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"simjoin"
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/store"
)

// defaultMaxBodyBytes bounds request bodies unless -max-body-bytes says
// otherwise; datasets beyond the limit belong in files loaded at startup
// (-load) or in the durable data directory (-data), not in request
// payloads.
const defaultMaxBodyBytes = 64 << 20

// server holds the named datasets and serves join/range/KNN queries over
// them. All handlers are safe for concurrent use: the registry is guarded
// by a RWMutex and datasets are immutable once registered (upload replaces
// wholesale).
type server struct {
	mu   sync.RWMutex
	sets map[string]*entry
	m    *metrics
	// st, when non-nil, is the durable storage engine every mutation tees
	// through; rec is what it replayed at boot (reported by /healthz).
	st  *store.Catalog
	rec store.RecoveryInfo
	// maxBody bounds request bodies (-max-body-bytes).
	maxBody int64
	// tracer retains completed request traces for GET /debug/traces;
	// log, when non-nil, gets one structured access-log line per request.
	tracer *trace.Tracer
	log    *slog.Logger
	// qlog is the per-query journal behind GET /debug/queries: every
	// join/KNN/range/watch query served, with its estimate, actuals and
	// trace ID.
	qlog *querylog.Log
	// live is the continuous-query engine: incremental per-dataset
	// indexes plus the standing-query subscriptions watch streams serve.
	live *live.Engine
	// maxPairs, when > 0, is the admission budget (-max-pairs): join
	// queries whose predicted result size exceeds it are refused with
	// 429 — or run counting-only when the request sets "degrade" —
	// instead of materializing a result nobody bounded.
	maxPairs int64
	// sketch (-sketch, default on) gives every registered dataset a
	// resident join-size sketch, maintained incrementally across appends
	// and rebuilt on recovery, so estimates never touch the raw points.
	sketch bool
	// debug additionally mounts net/http/pprof under /debug/pprof/.
	debug bool
}

// entry is one registered dataset plus its lazily built query index.
// Appends are copy-on-write: a new Dataset replaces the pointer and the
// index is invalidated, so in-flight queries keep reading the immutable
// snapshot they started with.
type entry struct {
	mu sync.Mutex
	ds *simjoin.Dataset
	nn *simjoin.NeighborIndex
}

// dataset returns the current immutable snapshot.
func (e *entry) dataset() *simjoin.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds
}

// index returns the entry's neighbor index, building it if stale.
func (e *entry) index() *simjoin.NeighborIndex {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nn == nil {
		e.nn = simjoin.NewNeighborIndex(e.ds)
	}
	return e.nn
}

// appendPoints adds points copy-on-write and invalidates the index. It
// returns the new length, or an error on a dimensionality mismatch
// (nothing changes in that case). The clone reserves capacity for the
// whole batch up front, so an append costs one bulk copy of the existing
// points — not a point-by-point rebuild. notify, when non-nil, runs
// under the entry lock after a successful append with the batch and the
// new length — the same lock live tracking seeds under, so the engine
// sees every batch exactly once and in order.
func (e *entry) appendPoints(pts [][]float64, notify func(pts [][]float64, total int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range pts {
		if len(p) != e.ds.Dims() {
			return 0, fmt.Errorf("point %d has %d dims, dataset has %d", i, len(p), e.ds.Dims())
		}
	}
	grown := e.ds.CloneWithCap(len(pts))
	for _, p := range pts {
		grown.Append(p)
	}
	e.adoptGrown(grown, pts)
	if notify != nil {
		notify(pts, e.ds.Len())
	}
	return e.ds.Len(), nil
}

// adoptGrown swaps in a grown snapshot under the entry lock,
// invalidating the index and carrying the predecessor's join-size
// sketch forward: the clone/wrap deliberately dropped the sketch
// pointer, so the batch is attached and observed exactly once here.
func (e *entry) adoptGrown(grown *simjoin.Dataset, pts [][]float64) {
	if sk := e.ds.Sketch(); sk != nil {
		grown.AttachSketch(sk)
		for _, p := range pts {
			sk.Observe(p)
		}
	}
	e.ds = grown
	e.nn = nil
}

// appendThrough routes an append through the durable store and adopts
// the grown dataset it returns, so the in-memory snapshot and the WAL
// can never disagree on ordering for this dataset. notify has the
// appendPoints contract and fires only after the store committed.
func (e *entry) appendThrough(ctx context.Context, st *store.Catalog, name string, pts [][]float64, notify func(pts [][]float64, total int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	grown, err := st.Append(ctx, name, pts)
	if err != nil {
		return 0, err
	}
	e.adoptGrown(simjoin.WrapDataset(grown), pts)
	if notify != nil {
		notify(pts, e.ds.Len())
	}
	return e.ds.Len(), nil
}

// seedLive registers the entry's current snapshot with the live engine.
// Holding the entry lock across the snapshot + Track pair means no
// append can slip between them: the mirror starts exactly at this
// snapshot and the append notifications (which run under the same lock)
// carry everything after it.
func (e *entry) seedLive(eng *live.Engine, name string, eps float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	eng.Track(name, e.ds.Internal(), eps)
}

func newServer() *server {
	s := &server{
		sets:    make(map[string]*entry),
		m:       newMetrics(),
		maxBody: defaultMaxBodyBytes,
		tracer:  trace.New(defaultTraceCapacity),
		qlog:    querylog.New(0),
		sketch:  true,
	}
	s.live = live.New(liveHooks(s.m))
	s.m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { return float64(s.live.Subscriptions()) })
	return s
}

// handler wires up the routes, each wrapped in the tracing + access-log +
// request/error/latency middleware, behind GET /metrics (Prometheus
// text), the legacy GET /debug/vars JSON, and GET /debug/traces.
func (s *server) handler() http.Handler {
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
	handle("POST /datasets/{name}/points", s.handleAppend)
	handle("POST /datasets/{name}/watch", s.handleWatch)
	handle("POST /datasets/{name}/selfjoin", s.handleSelfJoin)
	handle("POST /datasets/{name}/range", s.handleRange)
	handle("POST /datasets/{name}/knn", s.handleKNN)
	handle("POST /join", s.handleJoin)
	mux.Handle("GET /metrics", s.m.promHandler())
	mux.HandleFunc("GET /debug/vars", s.m.varsHandler)
	mux.HandleFunc("GET /debug/traces", tracesHandler(s.tracer))
	mux.HandleFunc("GET /debug/traces/{id}", traceByIDHandler(s.tracer))
	mux.HandleFunc("GET /debug/queries", queriesHandler(s.qlog))
	if s.debug {
		mountPprof(mux)
	}
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.sets)
	s.mu.RUnlock()
	out := map[string]any{"status": "ok", "datasets": n, "build": buildVersion}
	if s.st != nil {
		out["persistence"] = map[string]any{
			"enabled":            true,
			"dir":                s.st.Dir(),
			"wal_bytes":          s.st.WALBytes(),
			"recovered_datasets": len(s.rec.Datasets),
			"replayed_records":   s.rec.Records(),
			"truncated_tails":    s.rec.TruncatedTails(),
			"quarantined":        len(s.rec.Quarantined),
		}
	}
	writeJSON(w, out)
}

// storeStatus maps storage-engine errors onto HTTP statuses: caller
// mistakes are 4xx, IO failures 500.
func storeStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &store.InputError{}):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// httpError writes a JSON error with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// newEntry wraps a dataset for serving, attaching a resident join-size
// sketch when the server runs with sketches enabled: one pass over the
// points here, O(1) per point on every later append.
func (s *server) newEntry(ds *simjoin.Dataset) *entry {
	if s.sketch {
		ds.EnableSketch()
	}
	return &entry{ds: ds}
}

// get fetches a dataset entry by name.
func (s *server) get(name string) (*entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sets[name]
	return e, ok
}

// datasetInfo is the list/upload response shape.
type datasetInfo struct {
	Name string `json:"name"`
	Len  int    `json:"len"`
	Dims int    `json:"dims"`
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]datasetInfo, 0, len(s.sets))
	for name, e := range s.sets {
		ds := e.dataset()
		out = append(out, datasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()})
	}
	s.mu.RUnlock()
	writeJSON(w, out)
}

// putRequest is the JSON upload shape; CSV uploads use Content-Type
// text/csv with raw rows instead.
type putRequest struct {
	Points [][]float64 `json:"points"`
}

// decodeUpload parses an upload body — JSON {"points": …} or text/csv —
// into a rectangular, non-empty point list, writing the HTTP error
// itself when the body is unusable. Shared by worker and coordinator
// upload handlers.
func decodeUpload(w http.ResponseWriter, r *http.Request, limit int64) ([][]float64, bool) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		ds, err := simjoin.ReadCSV(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing CSV: %v", err)
			return nil, false
		}
		pts := make([][]float64, ds.Len())
		for i := range pts {
			pts[i] = ds.Point(i)
		}
		return pts, true
	}
	var req putRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing JSON: %v", err)
		return nil, false
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "no points in upload")
		return nil, false
	}
	for i, p := range req.Points {
		if len(p) != len(req.Points[0]) {
			httpError(w, http.StatusBadRequest, "point %d has %d dims, want %d", i, len(p), len(req.Points[0]))
			return nil, false
		}
	}
	return req.Points, true
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		httpError(w, http.StatusBadRequest, "dataset name required")
		return
	}
	pts, ok := decodeUpload(w, r, s.maxBody)
	if !ok {
		return
	}
	ds := simjoin.FromPoints(pts)
	if s.st != nil {
		if err := s.st.Put(r.Context(), name, ds.Internal()); err != nil {
			httpError(w, storeStatus(err), "%v", err)
			return
		}
	}
	s.mu.Lock()
	_, replaced := s.sets[name]
	s.sets[name] = s.newEntry(ds)
	s.mu.Unlock()
	if replaced {
		// Standing queries were registered against the old incarnation's
		// indexes; end their streams cleanly rather than silently
		// switching datasets under them.
		s.live.Drop(name, live.ReasonReplaced)
	}
	writeJSON(w, datasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.sets[name]
	delete(s.sets, name)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	// In-flight watch streams for this dataset end with a terminal
	// {"event":"end","reason":"dataset deleted"} line, not a dropped
	// connection.
	s.live.Drop(name, live.ReasonDeleted)
	if s.st != nil {
		if err := s.st.Delete(r.Context(), name); err != nil && !errors.Is(err, store.ErrNotFound) {
			// The entry is gone from memory but its files remain; surface
			// the IO failure rather than pretending the delete is durable.
			httpError(w, storeStatus(err), "%v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleAppend grows a dataset in place (POST …/points with
// {"points": [[…], …]}); subsequent range/KNN queries see the new points
// after a lazy index rebuild.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", r.PathValue("name"))
		return
	}
	var req putRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing JSON: %v", err)
		return
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "no points in append")
		return
	}
	name := r.PathValue("name")
	notify := func(pts [][]float64, total int) {
		s.live.Append(r.Context(), name, pts, total)
	}
	var n int
	var err error
	if s.st != nil {
		n, err = e.appendThrough(r.Context(), s.st, name, req.Points, notify)
		if err != nil {
			httpError(w, storeStatus(err), "%v", err)
			return
		}
	} else {
		n, err = e.appendPoints(req.Points, notify)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	writeJSON(w, datasetInfo{Name: name, Len: n, Dims: e.dataset().Dims()})
}

// joinParams is the shared query shape for self- and two-set joins.
type joinParams struct {
	Eps       float64 `json:"eps"`
	Metric    string  `json:"metric"`    // "L2" (default), "L1", "Linf"
	Algorithm string  `json:"algorithm"` // default "ekdb"; "auto" allowed
	Workers   int     `json:"workers"`
	MaxPairs  int     `json:"max_pairs"` // truncate the response (0 = no cap)
	Stream    bool    `json:"stream"`    // NDJSON: one [i,j] line per pair, then a summary object
	// Degrade opts into the admission budget's soft failure mode: a
	// query whose estimated result size exceeds the server's -max-pairs
	// runs counting-only (exact total, no pairs) instead of being
	// rejected with 429.
	Degrade bool `json:"degrade"`
}

func (p joinParams) options() (simjoin.Options, error) {
	opt := simjoin.Options{Eps: p.Eps, Workers: p.Workers, Algorithm: simjoin.Algorithm(p.Algorithm)}
	if p.Metric != "" {
		m, err := simjoin.ParseMetric(p.Metric)
		if err != nil {
			return opt, err
		}
		opt.Metric = m
	}
	return opt, nil
}

// joinResponse is the join result shape.
type joinResponse struct {
	Pairs     [][2]int `json:"pairs"`
	Total     int64    `json:"total"`
	Truncated bool     `json:"truncated"`
	ElapsedMS float64  `json:"elapsed_ms"`
	// EstimatedPairs is the planner's pre-run prediction, present when
	// one was made (a sketch was resident, or admission control forced a
	// sampling estimate).
	EstimatedPairs *int64 `json:"estimated_pairs,omitempty"`
	// Degraded marks a counting-only run forced by the admission budget:
	// Total is exact, Pairs is empty.
	Degraded bool `json:"degraded,omitempty"`
}

func toJoinResponse(res *simjoin.Result, maxPairs int) joinResponse {
	out := joinResponse{Total: res.Stats.Results, ElapsedMS: float64(res.Stats.Elapsed.Microseconds()) / 1000}
	pairs := res.Pairs
	if maxPairs > 0 && len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
		out.Truncated = true
	}
	out.Pairs = make([][2]int, len(pairs))
	for i, p := range pairs {
		out.Pairs[i] = [2]int{p.I, p.J}
	}
	return out
}

// streamFlushEvery is how many NDJSON pair lines accumulate between
// explicit flushes to the client.
const streamFlushEvery = 1024

// streamPairs answers a join request as NDJSON — one [i,j] line per pair
// the moment the join finds it, closed by a summary object — so neither
// the server nor the client ever holds the full pair set. The route's
// stream counters are charged here, where the pair volume is visible.
// est, when >= 0, is the pre-run prediction and is echoed in the summary
// as estimated_pairs next to the actual total. each runs the streaming
// join with the provided emit callback; its only possible errors are
// validation errors raised before the first pair, so they can still be
// answered with a plain HTTP error.
func streamPairs(w http.ResponseWriter, m *metrics, route string, maxPairs int, est int64, each func(emit func(i, j int)) (simjoin.Stats, error)) {
	m.streamRequests.With(route).Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	flusher, _ := w.(http.Flusher)
	var sent int64
	emit := func(i, j int) {
		if maxPairs > 0 && sent >= int64(maxPairs) {
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
	}
	st, err := each(emit)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m.streamPairs.Add(sent)
	summary := map[string]any{
		"total":      st.Results,
		"truncated":  maxPairs > 0 && st.Results > int64(maxPairs),
		"elapsed_ms": float64(st.Elapsed.Microseconds()) / 1000,
	}
	if est >= 0 {
		summary["estimated_pairs"] = est
	}
	line, _ := json.Marshal(summary)
	bw.Write(line)
	bw.WriteByte('\n')
	_ = bw.Flush()
}

// admission is the outcome of pricing one join request: the prediction
// (est < 0 when no estimate was made) and whether it breaks the budget.
type admission struct {
	est    int64
	source string
	over   bool
}

// price turns a planner report into an admission decision, charging the
// per-source estimate counter.
func (s *server) price(pl simjoin.Plan) admission {
	a := admission{est: pl.EstimatedPairs, source: estimateSource(pl.Sketched)}
	s.m.estimateRequests.With(a.source).Inc()
	a.over = s.maxPairs > 0 && a.est > s.maxPairs
	return a
}

// shouldPrice reports whether a request gets a pre-run estimate at all:
// always when a budget is set (admission needs the number), otherwise
// only when every listed dataset has a resident sketch making the
// estimate free. !(eps > 0) short-circuits — the join itself will
// reject the threshold with a clearer message.
func (s *server) shouldPrice(eps float64, sets ...*simjoin.Dataset) bool {
	if !(eps > 0) {
		return false
	}
	if s.maxPairs > 0 {
		return true
	}
	for _, ds := range sets {
		if ds.Sketch() == nil {
			return false
		}
	}
	return true
}

// rejectOverBudget answers 429, carrying the estimate that triggered it
// so the caller can see how far over budget the query was.
func rejectOverBudget(w http.ResponseWriter, m *metrics, est, budget int64) {
	m.estimateRejected.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":           fmt.Sprintf(`estimated result size %d exceeds the server's -max-pairs budget %d; narrow eps, or set "degrade": true for a counting-only run`, est, budget),
		"estimated_pairs": est,
		"max_pairs":       budget,
	})
}

// degradedResponse assembles the counting-only answer of an over-budget
// run the caller opted to degrade.
func degradedResponse(total int64, elapsedMS float64, est int64) joinResponse {
	return joinResponse{
		Pairs:          [][2]int{},
		Total:          total,
		ElapsedMS:      elapsedMS,
		EstimatedPairs: &est,
		Degraded:       true,
	}
}

// joinCalls is what differs between the self- and two-set join routes.
type joinCalls struct {
	sets    []*simjoin.Dataset // the inputs, priced together
	plan    func(m simjoin.Metric, eps float64) simjoin.Plan
	collect func(opt simjoin.Options) (*simjoin.Result, error)
	each    func(opt simjoin.Options, emit func(i, j int)) (simjoin.Stats, error)
}

// runJoin is the shared body of both join routes once their inputs are
// resolved: price the query, journal it, then reject, degrade to a
// counting-only run, stream, or collect. rec arrives with Kind and the
// dataset names filled in.
func (s *server) runJoin(w http.ResponseWriter, r *http.Request, route string, rec querylog.Record, p joinParams, c joinCalls) {
	opt, err := p.options()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt.Trace = trace.FromContext(r.Context())
	adm := admission{est: -1}
	if s.shouldPrice(opt.Eps, c.sets...) {
		adm = s.price(c.plan(opt.Metric, opt.Eps))
	}
	rec.Eps, rec.Metric, rec.Algorithm = p.Eps, opt.Metric.String(), p.Algorithm
	rec.Stream, rec.EstimatedPairs, rec.TraceID = p.Stream, adm.est, traceIDOf(r)
	start := time.Now()
	var js simjoin.JoinStats
	opt.Stats = &js
	if adm.over {
		if !p.Degrade {
			rejectOverBudget(w, s.m, adm.est, s.maxPairs)
			recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeRejected, nil)
			return
		}
		s.m.estimateDegraded.Inc()
		collect := false
		opt.CollectPairs = &collect
	} else if p.Stream {
		streamPairs(w, s.m, route, p.MaxPairs, adm.est, func(emit func(i, j int)) (simjoin.Stats, error) {
			st, err := c.each(opt, emit)
			if err != nil {
				recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeError, err)
				return st, err
			}
			s.m.observeEstimateRatio(adm.est, st.Results)
			fillFromRun(&rec, js, st.Results)
			rec.Outcome = querylog.OutcomeOK
			recordQuery(s.qlog, s.m, rec)
			return st, nil
		})
		return
	}
	res, err := c.collect(opt)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeError, err)
		return
	}
	s.m.observeEstimateRatio(adm.est, res.Stats.Results)
	fillFromRun(&rec, js, res.Stats.Results)
	if adm.over {
		rec.Outcome = querylog.OutcomeDegraded
		recordQuery(s.qlog, s.m, rec)
		writeJSON(w, degradedResponse(res.Stats.Results, float64(res.Stats.Elapsed.Microseconds())/1000, adm.est))
		return
	}
	rec.Outcome = querylog.OutcomeOK
	recordQuery(s.qlog, s.m, rec)
	out := toJoinResponse(res, p.MaxPairs)
	if adm.est >= 0 {
		out.EstimatedPairs = &adm.est
	}
	writeJSON(w, out)
}

func (s *server) handleSelfJoin(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	var p joinParams
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&p); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	ds := e.dataset()
	s.runJoin(w, r, "POST /datasets/{name}/selfjoin", querylog.Record{Kind: "selfjoin", Dataset: name}, p, joinCalls{
		sets:    []*simjoin.Dataset{ds},
		plan:    func(m simjoin.Metric, eps float64) simjoin.Plan { return simjoin.PlanSelfJoin(ds, m, eps) },
		collect: func(opt simjoin.Options) (*simjoin.Result, error) { return simjoin.SelfJoin(ds, opt) },
		each: func(opt simjoin.Options, emit func(i, j int)) (simjoin.Stats, error) {
			return simjoin.SelfJoinEach(ds, opt, emit)
		},
	})
}

// twoJoinRequest names the two sides of a cross-dataset join.
type twoJoinRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	joinParams
}

func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req twoJoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	ea, ok := s.get(req.A)
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", req.A)
		return
	}
	eb, ok := s.get(req.B)
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", req.B)
		return
	}
	da, db := ea.dataset(), eb.dataset()
	if da.Dims() != db.Dims() {
		httpError(w, http.StatusBadRequest, "dimensionality mismatch: %d vs %d", da.Dims(), db.Dims())
		return
	}
	s.runJoin(w, r, "POST /join", querylog.Record{Kind: "join", Dataset: req.A, Dataset2: req.B}, req.joinParams, joinCalls{
		sets:    []*simjoin.Dataset{da, db},
		plan:    func(m simjoin.Metric, eps float64) simjoin.Plan { return simjoin.PlanJoin(da, db, m, eps) },
		collect: func(opt simjoin.Options) (*simjoin.Result, error) { return simjoin.Join(da, db, opt) },
		each: func(opt simjoin.Options, emit func(i, j int)) (simjoin.Stats, error) {
			return simjoin.JoinEach(da, db, opt, emit)
		},
	})
}

// pointQuery is the range/KNN request shape.
type pointQuery struct {
	Point  []float64 `json:"point"`
	Radius float64   `json:"radius"` // range queries
	K      int       `json:"k"`      // KNN queries
	Metric string    `json:"metric"`
}

func (q pointQuery) metric() (simjoin.Metric, error) {
	if q.Metric == "" {
		return simjoin.L2, nil
	}
	return simjoin.ParseMetric(q.Metric)
}

func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", r.PathValue("name"))
		return
	}
	var q pointQuery
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	m, err := q.metric()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ds := e.dataset()
	if len(q.Point) != ds.Dims() {
		httpError(w, http.StatusBadRequest, "query has %d dims, dataset has %d", len(q.Point), ds.Dims())
		return
	}
	if !(q.Radius > 0) {
		httpError(w, http.StatusBadRequest, "radius must be positive")
		return
	}
	start := time.Now()
	idx := e.index().Range(q.Point, m, q.Radius)
	if idx == nil {
		idx = []int{}
	}
	recordQuery(s.qlog, s.m, querylog.Record{
		Kind: "range", Dataset: r.PathValue("name"), Eps: q.Radius, Metric: m.String(),
		EstimatedPairs: -1, ActualPairs: int64(len(idx)),
		ElapsedNS: int64(time.Since(start)), TraceID: traceIDOf(r), Outcome: querylog.OutcomeOK,
	})
	writeJSON(w, map[string]any{"indexes": idx})
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "no dataset %q", r.PathValue("name"))
		return
	}
	var q pointQuery
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	m, err := q.metric()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(q.Point) != e.dataset().Dims() {
		httpError(w, http.StatusBadRequest, "query has %d dims, dataset has %d", len(q.Point), e.dataset().Dims())
		return
	}
	if q.K < 1 {
		httpError(w, http.StatusBadRequest, "k must be ≥ 1")
		return
	}
	start := time.Now()
	nbrs := e.index().KNN(q.Point, q.K, m)
	recordQuery(s.qlog, s.m, querylog.Record{
		Kind: "knn", Dataset: r.PathValue("name"), Metric: m.String(),
		EstimatedPairs: -1, ActualPairs: int64(len(nbrs)),
		ElapsedNS: int64(time.Since(start)), TraceID: traceIDOf(r), Outcome: querylog.OutcomeOK,
	})
	type nb struct {
		Index int     `json:"index"`
		Dist  float64 `json:"dist"`
	}
	out := make([]nb, len(nbrs))
	for i, n := range nbrs {
		out[i] = nb{Index: n.Index, Dist: n.Dist}
	}
	writeJSON(w, map[string]any{"neighbors": out})
}
