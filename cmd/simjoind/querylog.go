package main

import (
	"net/http"
	"time"

	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

// recordQuery journals one finished query and charges the query metrics
// off the same classification the journal stored: the slow counter when
// the journal marked it slow, and the per-algorithm latency histogram
// always ("none" when no engine ran, e.g. a rejected query).
func recordQuery(l *querylog.Log, m *metrics, rec querylog.Record) querylog.Record {
	rec = l.Add(rec)
	if rec.Slow {
		m.querySlow.Inc()
	}
	algo := rec.Algorithm
	if algo == "" {
		algo = "none"
	}
	m.queryLatency.With(algo).Observe(float64(rec.ElapsedNS) / 1e9)
	return rec
}

// traceIDOf returns the request's trace ID when the instrument
// middleware opened a span for it, "" otherwise — the key that links a
// journal record to /debug/traces/{id}.
func traceIDOf(r *http.Request) string {
	if sp := trace.FromContext(r.Context()); sp != nil {
		return sp.TraceID().String()
	}
	return ""
}

// recordFailure journals a query that never produced run stats — a
// rejection, a degraded run that errored, a validation failure — with
// wall time measured from start.
func recordFailure(l *querylog.Log, m *metrics, rec querylog.Record, start time.Time, o querylog.Outcome, err error) {
	rec.Outcome = o
	if err != nil {
		rec.Error = err.Error()
	}
	rec.ElapsedNS = int64(time.Since(start))
	recordQuery(l, m, rec)
}

// fillFromRun copies a finished run into rec: the result size, wall
// time, fan-out width and worker count from the run, and — when the join
// ran in this process rather than on the shards — the resolved engine,
// work counters and phase timings from the library's report. A
// library-side estimate (streaming runs under AlgorithmAuto fill one)
// backfills a record that carried none of its own.
func fillFromRun(rec *querylog.Record, run joinRun) {
	js := run.stats
	rec.ActualPairs = run.total
	rec.ElapsedNS = int64(run.elapsed)
	rec.Workers = run.workers
	if run.scatter != nil {
		rec.Shards = run.scatter.Shards
	}
	if js.Algorithm == "" {
		return
	}
	rec.Algorithm = string(js.Algorithm)
	rec.Keys = js.Keys
	rec.DistComps = js.DistComps
	rec.Candidates = js.Candidates
	rec.BuildNS = int64(js.BuildTime)
	rec.ProbeNS = int64(js.ProbeTime)
	rec.CollectNS = int64(js.CollectTime)
	if rec.EstimatedPairs < 0 && js.EstimatedPairs >= 0 {
		rec.EstimatedPairs = js.EstimatedPairs
	}
}
