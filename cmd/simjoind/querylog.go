package main

import (
	"net/http"
	"strconv"
	"time"

	"simjoin"
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

// queriesHandler serves GET /debug/queries: the journal newest first
// under running totals, narrowed by ?slow=1 (slow-classified records
// only), ?dataset=<name> (either side of a join) and ?limit=N. Like the
// trace routes it sits outside the instrument middleware — scraping the
// journal must not journal itself.
func queriesHandler(l *querylog.Log) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f := querylog.Filter{Dataset: r.URL.Query().Get("dataset")}
		if v := r.URL.Query().Get("slow"); v == "1" || v == "true" {
			f.SlowOnly = true
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				httpError(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", v)
				return
			}
			f.Limit = n
		}
		total, slow := l.Totals()
		q := l.Snapshot(f)
		if q == nil {
			q = []querylog.Record{}
		}
		writeJSON(w, map[string]any{"total": total, "slow": slow, "queries": q})
	}
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

// fillFromRun copies a finished run's counters into rec: the resolved
// engine, work counters and phase timings from the detailed stats, the
// result size from the run summary. A library-side estimate (streaming
// runs under AlgorithmAuto fill one) backfills a record that carried
// none of its own.
func fillFromRun(rec *querylog.Record, js simjoin.JoinStats, results int64) {
	rec.Algorithm = string(js.Algorithm)
	rec.ActualPairs = results
	rec.DistComps = js.DistComps
	rec.Candidates = js.Candidates
	rec.BuildNS = int64(js.BuildTime)
	rec.ProbeNS = int64(js.ProbeTime)
	rec.CollectNS = int64(js.CollectTime)
	rec.ElapsedNS = int64(js.Elapsed)
	if rec.EstimatedPairs < 0 && js.EstimatedPairs >= 0 {
		rec.EstimatedPairs = js.EstimatedPairs
	}
}
