package gateway

import (
	"context"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/obsv"
)

// gwMetrics is the gateway's Prometheus surface: the per-route HTTP
// families every simjoind tier has, plus the tenant/experiment families
// only a front door can know (who was shed and why, which arm served,
// how shadows diffed).
type gwMetrics struct {
	reg *obsv.Registry

	httpRequests *obsv.CounterVec
	httpErrors   *obsv.CounterVec
	httpLatency  *obsv.HistogramVec

	// requests counts authenticated requests per tenant; unauthorized
	// requests land in the "" tenant of shed instead.
	requests *obsv.CounterVec
	// shed counts refused requests per tenant and reason: "auth",
	// "rate", "inflight", "estimate", "queue".
	shed *obsv.CounterVec
	// queueWait observes how long admitted queries waited for a fair-
	// queue slot.
	queueWait *obsv.Histogram

	// armRequests/armLatency split experiment traffic by arm
	// (incumbent / candidate); shadow candidate runs are charged here
	// too, so both arms' latency distributions come from live traffic.
	armRequests *obsv.CounterVec
	armLatency  *obsv.HistogramVec

	// shadowDiffs counts completed shadow comparisons, shadowMismatch
	// the ones whose pair count or checksum disagreed, shadowDropped
	// the shadow requests skipped because all shadow workers were busy.
	shadowDiffs    *obsv.CounterVec
	shadowMismatch *obsv.CounterVec
	shadowDropped  *obsv.Counter

	// priced counts join queries that went through estimate pricing.
	priced *obsv.Counter
}

// gwHealthProbeTimeout bounds the backend health sweep a /metrics or
// /healthz probe triggers.
const gwHealthProbeTimeout = 2 * time.Second

func newGWMetrics(g *Gateway) *gwMetrics {
	reg := obsv.NewRegistry()
	obsv.NewRuntimeCollector().Register(reg, "simjoin_gw")
	m := &gwMetrics{
		reg:          reg,
		httpRequests: reg.NewCounterVec("simjoin_gw_http_requests_total", "Gateway HTTP requests by route.", "route"),
		httpErrors:   reg.NewCounterVec("simjoin_gw_http_errors_total", "Gateway HTTP responses with status >= 400 by route.", "route"),
		httpLatency:  reg.NewHistogramVec("simjoin_gw_http_request_duration_seconds", "Gateway HTTP request latency by route.", obsv.LatencyBuckets(), "route"),

		requests:  reg.NewCounterVec("simjoin_gw_requests_total", "Authenticated gateway requests by tenant.", "tenant"),
		shed:      reg.NewCounterVec("simjoin_gw_shed_total", "Requests refused by the gateway, by tenant and reason (auth, rate, inflight, estimate, queue).", "tenant", "reason"),
		queueWait: reg.NewHistogram("simjoin_gw_queue_wait_seconds", "Time admitted queries spent waiting for a fair-queue slot.", obsv.LatencyBuckets()),

		armRequests: reg.NewCounterVec("simjoin_gw_arm_requests_total", "Experiment-routed join requests by experiment and arm.", "experiment", "arm"),
		armLatency:  reg.NewHistogramVec("simjoin_gw_arm_latency_seconds", "Join latency through the gateway by experiment and arm.", obsv.LatencyBuckets(), "experiment", "arm"),

		shadowDiffs:    reg.NewCounterVec("simjoin_gw_shadow_diffs_total", "Completed shadow comparisons by experiment.", "experiment"),
		shadowMismatch: reg.NewCounterVec("simjoin_gw_shadow_mismatch_total", "Shadow comparisons whose pair count or checksum disagreed with the incumbent, by experiment.", "experiment"),
		shadowDropped:  reg.NewCounter("simjoin_gw_shadow_dropped_total", "Shadow requests skipped because all shadow workers were busy."),

		priced: reg.NewCounter("simjoin_gw_priced_total", "Join queries priced against a tenant admission budget via a backend estimate."),
	}
	reg.NewGaugeFunc("simjoin_gw_tenants", "Tenants in the active gateway config.",
		func() float64 { return float64(g.tenantCount()) })
	reg.NewCounterFunc("simjoin_gw_config_reloads_total", "Gateway config swaps applied.",
		g.Reloads)
	reg.NewGaugeFunc("simjoin_gw_queue_depth", "Queries waiting for a fair-queue slot right now.",
		func() float64 { return float64(g.queue.queued()) })
	reg.NewCounterFunc("simjoin_gw_rclient_retries_total", "HTTP retry attempts the gateway's backend client has made.",
		func() int64 { return g.rc.Retries() })
	reg.NewGaugeVecFunc("simjoin_gw_backend_up", "Per-backend health as seen by the gateway (1 = up).", "backend",
		func() map[string]float64 {
			ctx, cancel := context.WithTimeout(context.Background(), gwHealthProbeTimeout)
			defer cancel()
			up := 0.0
			if api.Probe(ctx, g.rc.Get, []string{g.backend})[0].OK {
				up = 1
			}
			return map[string]float64{g.backend: up}
		})
	return m
}

// armLabel names the arm a request was served by for the per-arm
// families.
const (
	armIncumbent = "incumbent"
	armCandidate = "candidate"
)
