package main

import "simjoin/internal/obsv"

// metrics is the server's observability surface: per-route request and
// error counters, a per-route latency histogram, and dedicated streaming
// counters (NDJSON responses bypass response buffering, so their pair
// volume is only visible here), served as Prometheus text at GET
// /metrics.
type metrics struct {
	reg      *obsv.Registry
	requests *obsv.CounterVec
	errors   *obsv.CounterVec
	latency  *obsv.HistogramVec

	// streamRequests counts requests answered as NDJSON streams and
	// streamPairs the pair lines they emitted — the volume that never
	// shows up in response-size accounting.
	streamRequests *obsv.CounterVec
	streamPairs    *obsv.Counter

	// Storage-engine surface (fed by store.Hooks when -data is set; the
	// series exist either way so dashboards never 404 on the name):
	// per-operation latency histograms plus fsync/compaction/byte tallies.
	storeWALAppend   *obsv.Histogram
	storeSnapshot    *obsv.Histogram
	storeCompaction  *obsv.Histogram
	storeWALBytes    *obsv.Counter
	storeFsyncs      *obsv.Counter
	storeCompactions *obsv.Counter

	// Live matching engine surface (fed by live.Hooks; an active-
	// subscription gauge is registered per mode where the engine lives):
	// standing-query churn, delta volume, and index mutation latency.
	liveSubscribed   *obsv.Counter
	liveEvictions    *obsv.Counter
	liveBatches      *obsv.Counter
	liveDeltaPairs   *obsv.Counter
	liveCatchupPairs *obsv.Counter
	liveAppend       *obsv.Histogram

	// Point-index surface: k-d tree builds behind range/knn queries (an
	// entry's first query, then one per background rebuild of a long
	// scanned tail) and how long each took. Unlabelled, so bounded.
	indexRebuilds *obsv.Counter
	indexRebuild  *obsv.Histogram

	// Estimation / admission surface, prefixed simjoin_ rather than
	// simjoind_ because the numbers come from the library's planner:
	// how many pre-query estimates were served, what admission control
	// did with them, and how predictions compared to the results that
	// actually came out.
	estimateRequests *obsv.Counter
	estimateRejected *obsv.Counter
	estimateDegraded *obsv.Counter
	estimateRatio    *obsv.Histogram

	// Query-journal surface: every journaled query lands in the
	// per-algorithm latency histogram, and the slow counter tallies the
	// ones past the journal's slow threshold — the scrapeable shadow of
	// GET /debug/queries.
	querySlow    *obsv.Counter
	queryLatency *obsv.HistogramVec
}

func newMetrics() *metrics {
	reg := obsv.NewRegistry()
	// Runtime health telemetry (goroutines, heap, GC pauses, scheduler
	// latency) rides on every daemon registry; samples are taken at
	// scrape time, so an idle daemon costs nothing.
	obsv.NewRuntimeCollector().Register(reg, "simjoind")
	return &metrics{
		reg:            reg,
		requests:       reg.NewCounterVec("simjoind_requests_total", "HTTP requests by route.", "route"),
		errors:         reg.NewCounterVec("simjoind_errors_total", "HTTP responses with status >= 400 by route.", "route"),
		latency:        reg.NewHistogramVec("simjoind_request_duration_seconds", "HTTP request latency by route.", obsv.LatencyBuckets(), "route"),
		streamRequests: reg.NewCounterVec("simjoind_stream_requests_total", "Requests answered as NDJSON streams by route.", "route"),
		streamPairs:    reg.NewCounter("simjoind_stream_pairs_total", "Pair lines emitted over NDJSON streams."),

		storeWALAppend:   reg.NewHistogram("simjoind_store_wal_append_seconds", "WAL record write+sync latency.", obsv.LatencyBuckets()),
		storeSnapshot:    reg.NewHistogram("simjoind_store_snapshot_seconds", "Snapshot file write latency.", obsv.LatencyBuckets()),
		storeCompaction:  reg.NewHistogram("simjoind_store_compaction_seconds", "WAL-into-snapshot compaction latency.", obsv.LatencyBuckets()),
		storeWALBytes:    reg.NewCounter("simjoind_store_wal_appended_bytes_total", "Bytes appended to write-ahead logs."),
		storeFsyncs:      reg.NewCounter("simjoind_store_fsyncs_total", "fsync calls issued by the storage engine."),
		storeCompactions: reg.NewCounter("simjoind_store_compactions_total", "WAL-into-snapshot compactions completed."),

		liveSubscribed:   reg.NewCounter("simjoind_live_subscriptions_total", "Standing-query subscriptions registered."),
		liveEvictions:    reg.NewCounter("simjoind_live_evictions_total", "Subscriptions evicted as slow consumers."),
		liveBatches:      reg.NewCounter("simjoind_live_batches_total", "Batch events delivered to subscribers."),
		liveDeltaPairs:   reg.NewCounter("simjoind_live_delta_pairs_total", "Delta pairs delivered to subscribers."),
		liveCatchupPairs: reg.NewCounter("simjoind_live_catchup_pairs_total", "Pairs re-derived by catch-up replays."),
		liveAppend:       reg.NewHistogram("simjoind_live_append_seconds", "Incremental index mutation latency per appended batch (delta compute + insert).", obsv.LatencyBuckets()),

		indexRebuilds: reg.NewCounter("simjoind_index_rebuilds_total", "Point-index (k-d tree) builds for range/knn queries: first queries and background tail rebuilds."),
		indexRebuild:  reg.NewHistogram("simjoind_index_rebuild_seconds", "Point-index (k-d tree) build latency.", obsv.LatencyBuckets()),

		estimateRequests: reg.NewCounter("simjoin_estimate_requests_total", "Join-size estimates served before queries."),
		estimateRejected: reg.NewCounter("simjoin_estimate_rejected_total", "Join queries rejected (429) because the estimated result size exceeded the -max-pairs budget."),
		estimateDegraded: reg.NewCounter("simjoin_estimate_degraded_total", "Over-budget join queries degraded to counting-only runs."),
		estimateRatio:    reg.NewHistogram("simjoin_estimate_ratio", "Predicted over actual result size for completed joins that carried an estimate.", estimateRatioBuckets()),

		querySlow:    reg.NewCounter("simjoin_query_slow_total", "Journaled queries that ran past the journal's slow threshold."),
		queryLatency: reg.NewHistogramVec("simjoin_query_duration_seconds", "Journaled query latency by resolved algorithm.", obsv.LatencyBuckets(), "algorithm"),
	}
}

// estimateRatioBuckets spans under- and over-prediction symmetrically in
// powers of two (1/16 … 16): a calibrated estimator concentrates mass
// around the 1.0 boundary, and drift shows up as skew toward either end.
func estimateRatioBuckets() []float64 {
	return []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4, 8, 16}
}

// observeEstimateRatio records predicted/actual for a completed run.
// Runs without an estimate (est < 0) or with an empty result are
// skipped — the ratio is undefined for the former and unbounded for the
// latter.
func (m *metrics) observeEstimateRatio(est, actual int64) {
	if est >= 0 && actual > 0 {
		m.estimateRatio.Observe(float64(est) / float64(actual))
	}
}
