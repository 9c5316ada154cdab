package main

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/vec"
)

// defaultMaxBodyBytes bounds request bodies unless -max-body-bytes says
// otherwise; datasets beyond the limit belong in files loaded at startup
// (-load) or in the durable data directory (-data), not in request
// payloads.
const defaultMaxBodyBytes = 64 << 20

// core is what worker and coordinator mode share: the observability
// plumbing, the request limits, and the bodies of the query routes once
// a mode has resolved what to run.
type core struct {
	m *metrics
	// tracer retains completed request traces for GET /debug/traces;
	// log, when non-nil, gets one structured access-log line per request.
	tracer *trace.Tracer
	log    *slog.Logger
	// qlog is the per-query journal behind GET /debug/queries: every
	// join/KNN/range/watch query served, with its estimate, actuals and
	// trace ID.
	qlog *querylog.Log
	// maxBody bounds request bodies (-max-body-bytes).
	maxBody int64
	// maxPairs, when > 0, is the admission budget (-max-pairs): join
	// queries whose predicted result size exceeds it are refused with
	// 429 — or run counting-only when the request sets "degrade" —
	// instead of materializing a result nobody bounded.
	maxPairs int64
	// debug additionally mounts net/http/pprof under /debug/pprof/.
	debug bool
	// errStatus maps a failed query's error onto its HTTP status.
	errStatus func(error) int
}

func newCore(errStatus func(error) int) core {
	return core{
		m:         newMetrics(),
		tracer:    trace.New(defaultTraceCapacity),
		qlog:      querylog.New(0),
		maxBody:   defaultMaxBodyBytes,
		errStatus: errStatus,
	}
}

// mount wires rt behind the shared middleware and debug routes; below
// and get reach the tier underneath (api.Server.Below, Get).
func (s *core) mount(rt api.Routes, below []string, get func(context.Context, string) (*http.Response, error)) http.Handler {
	srv := &api.Server{
		Registry: s.m.reg, Requests: s.m.requests, Errors: s.m.errors, Latency: s.m.latency,
		Tracer: s.tracer, Log: s.log, Journal: s.qlog, Below: below, Get: get,
	}
	mux := srv.Handler(rt)
	if s.debug {
		mountPprof(mux)
	}
	return mux
}

// fail answers a failed query with the mode's status for err.
func (s *core) fail(w http.ResponseWriter, err error) {
	api.Error(w, s.errStatus(err), "%v", err)
}

// parseMetric resolves a request's metric name, "" meaning L2.
func parseMetric(name string) (simjoin.Metric, error) {
	if name == "" {
		return simjoin.L2, nil
	}
	return simjoin.ParseMetric(name)
}

// estimateParams parses the ?eps=[&metric=] query parameters of the
// estimate and explain routes (eps 0 when absent and not required),
// writing the HTTP error itself when they are unusable.
func estimateParams(w http.ResponseWriter, r *http.Request, required bool) (eps float64, m simjoin.Metric, ok bool) {
	v := r.URL.Query().Get("eps")
	if v == "" && !required {
		return 0, m, true
	}
	eps, err := strconv.ParseFloat(v, 64)
	if err != nil || !(eps > 0) {
		api.Error(w, http.StatusBadRequest, "eps must be a positive number, got %q", v)
		return 0, m, false
	}
	if m, err = parseMetric(r.URL.Query().Get("metric")); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return 0, m, false
	}
	return eps, m, true
}

// joinRun is what one finished join reports back to runJoin.
type joinRun struct {
	pairs   [][2]int          // collecting runs only
	stats   simjoin.JoinStats // the library's report (workers only)
	total   int64             // exact result size
	elapsed time.Duration     // engine or fan-out wall time
	scatter *api.Scatter      // distributed runs only
	workers int               // goroutines the engine ran on (workers only)
}

// joinCalls is what differs between the join routes and between modes.
type joinCalls struct {
	// price predicts the result size; est < 0 means the query goes
	// unpriced.
	price func(m simjoin.Metric, eps float64) (est int64)
	// collect runs the join to completion — counting only when
	// opt.CollectPairs says so — and each streams it pair by pair.
	collect func(opt simjoin.Options) (joinRun, error)
	each    func(opt simjoin.Options, emit func(i, j int)) (joinRun, error)
}

// runJoin is the shared body of every join route once its inputs are
// resolved: price the query, journal it, then reject, degrade to a
// counting-only run, stream, or collect. rec arrives with Kind and the
// dataset names filled in.
func (s *core) runJoin(w http.ResponseWriter, r *http.Request, route string, rec querylog.Record, p api.JoinParams, c joinCalls) {
	opt := simjoin.Options{Eps: p.Eps, Workers: p.Workers, Algorithm: simjoin.Algorithm(p.Algorithm)}
	var err error
	if opt.Metric, err = parseMetric(p.Metric); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt.Trace = trace.FromContext(r.Context())
	// !(eps > 0) goes unpriced — the join itself will reject the
	// threshold with a clearer message.
	est := int64(-1)
	if opt.Eps > 0 {
		if est = c.price(opt.Metric, opt.Eps); est >= 0 {
			s.m.estimateRequests.Inc()
		}
	}
	over := s.maxPairs > 0 && est > s.maxPairs
	rec.Eps, rec.Metric, rec.Algorithm = p.Eps, opt.Metric.String(), p.Algorithm
	rec.Stream, rec.EstimatedPairs, rec.TraceID = p.Stream, est, traceIDOf(r)
	start := time.Now()
	if over && !p.Degrade {
		s.m.estimateRejected.Inc()
		api.RejectOverBudget(w, est, s.maxPairs)
		recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeRejected, nil)
		return
	}
	// done journals a finished run and assembles its summary.
	done := func(run joinRun, outcome querylog.Outcome) api.JoinSummary {
		s.m.observeEstimateRatio(est, run.total)
		fillFromRun(&rec, run)
		rec.Outcome = outcome
		recordQuery(s.qlog, s.m, rec)
		sum := api.JoinSummary{Total: run.total, ElapsedMS: float64(run.elapsed.Microseconds()) / 1000, Scatter: run.scatter}
		if est >= 0 {
			sum.EstimatedPairs = &est
		}
		return sum
	}
	if p.Stream && !over {
		s.m.streamRequests.With(route).Inc()
		ps := api.NewPairStream(w, p.MaxPairs)
		run, err := c.each(opt, ps.Emit)
		if err != nil {
			// A streaming join fails before its first pair (validation,
			// or every shard down), so a plain error answer still works.
			s.fail(w, err)
			recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeError, err)
			return
		}
		s.m.streamPairs.Add(ps.Sent())
		sum := done(run, querylog.OutcomeOK)
		sum.Truncated = run.total > ps.Sent()
		ps.Close(sum)
		return
	}
	outcome := querylog.OutcomeOK
	if over {
		s.m.estimateDegraded.Inc()
		collect := false
		opt.CollectPairs = &collect
		outcome = querylog.OutcomeDegraded
	}
	run, err := c.collect(opt)
	if err != nil {
		s.fail(w, err)
		recordFailure(s.qlog, s.m, rec, start, querylog.OutcomeError, err)
		return
	}
	out := api.JoinResponse{JoinSummary: done(run, outcome), Pairs: run.pairs, Degraded: over}
	if p.MaxPairs > 0 && len(out.Pairs) > p.MaxPairs {
		out.Pairs, out.Truncated = out.Pairs[:p.MaxPairs], true
	}
	if out.Pairs == nil {
		out.Pairs = [][2]int{}
	}
	api.WriteJSON(w, out)
}

// pointRun is what one range or KNN query reports back to pointQuery.
type pointRun struct {
	answer  any
	n       int          // results in answer
	scatter *api.Scatter // distributed runs only
	tail    int          // points scanned past the indexed prefix (workers only)
}

// pointQuery is the shared body of the range and KNN routes: decode,
// run, journal, answer.
func (s *core) pointQuery(w http.ResponseWriter, r *http.Request, kind string, run func(q api.PointQuery, m simjoin.Metric) (pointRun, error)) {
	var q api.PointQuery
	if !api.Decode(w, r, s.maxBody, &q) {
		return
	}
	m, err := parseMetric(q.Metric)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res, err := run(q, m)
	if err != nil {
		s.fail(w, err)
		return
	}
	rec := querylog.Record{
		Kind: kind, Dataset: r.PathValue("name"), Eps: q.Radius, Metric: m.String(),
		EstimatedPairs: -1, ActualPairs: int64(res.n), Tail: int64(res.tail),
		ElapsedNS: int64(time.Since(start)), TraceID: traceIDOf(r), Outcome: querylog.OutcomeOK,
	}
	if res.scatter != nil {
		rec.Shards = res.scatter.Shards
	}
	recordQuery(s.qlog, s.m, rec)
	api.WriteJSON(w, res.answer)
}

// decodeWatch parses and validates the part of a watch request both
// modes check the same way, writing the HTTP error itself.
func (s *core) decodeWatch(w http.ResponseWriter, r *http.Request) (req api.WatchRequest, m vec.Metric, ok bool) {
	if !api.Decode(w, r, s.maxBody, &req) {
		return req, m, false
	}
	if req.Metric != "" {
		var err error
		if m, err = vec.ParseMetric(req.Metric); err != nil {
			api.Error(w, http.StatusBadRequest, "%v", err)
			return req, m, false
		}
	}
	if !(req.Eps > 0) {
		api.Error(w, http.StatusBadRequest, "eps must be positive")
		return req, m, false
	}
	return req, m, true
}

// watch is the shared body of the watch route once a mode has validated
// the standing query and has its source of batches ready: count the
// stream, say hello, hand pump a deliver func to feed until the source
// ends or deliver reports the client gone, and close with the terminal
// event when pump names a reason. The stream is journaled when it ends:
// ActualPairs is the delta volume delivered over its whole lifetime,
// ElapsedNS that lifetime. rec arrives with what only the mode knows:
// the second dataset, the fan-out width.
func (s *core) watch(w http.ResponseWriter, r *http.Request, rec querylog.Record, hello api.WatchHello, pump func(deliver func(pairs [][2]int, b api.WatchBatch) bool) (reason string)) {
	start := time.Now()
	rec.Kind, rec.Dataset, rec.Eps, rec.Metric = "watch", hello.Dataset, hello.Eps, hello.Metric
	rec.Stream, rec.EstimatedPairs, rec.TraceID, rec.Outcome = true, -1, traceIDOf(r), querylog.OutcomeOK
	defer func() {
		rec.ElapsedNS = int64(time.Since(start))
		recordQuery(s.qlog, s.m, rec)
	}()
	s.m.streamRequests.With("POST /datasets/{name}/watch").Inc()
	ws := api.NewWatchStream(w)
	if !ws.Hello(hello) {
		return
	}
	reason := pump(func(pairs [][2]int, b api.WatchBatch) bool {
		rec.ActualPairs += int64(len(pairs))
		s.m.streamPairs.Add(int64(len(pairs)))
		return ws.Batch(pairs, b)
	})
	if reason != "" {
		ws.End(reason)
	}
}
