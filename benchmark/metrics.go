package main

import (
	"fmt"
	"sync"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric may
// get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees; every workload reports
// all of them from the untraced run. BENCHMARK.json repeats this list and
// a test keeps the two in step.
//
// Every bound is 0.25, the widest the benchmark contract allows. Ten runs
// of one workload spread (first to third quartile over median) by a few
// percent on the latencies, which are undisturbed times (see undisturbed),
// but the shared host also has stretches of a minute or more in which
// even those are 10-20 % higher, and a bound has to survive them.
// README.md, "Repeatability", has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"side_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run. Every
// workload prints all of them; a layer the workload does not exercise did
// no work and reads 0.
var perLayer = []metricDef{
	{Name: "vec.ns_per_comp", Unit: "ns", Better: "lower"},
	{Name: "vec.kernel_share", Unit: "ratio", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dist_comps", Unit: "count", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.node_visits", Unit: "count", Better: "lower"},
	{Name: "core.filter_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.point_query_us", Unit: "us", Better: "lower"},
	{Name: "pairs.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "pairs.per_op", Unit: "count", Better: "lower"},
	{Name: "simjoin.api_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "sketch.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sketch.plan_us", Unit: "us", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "simjoind.point_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "simjoind.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "simjoind.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "simjoind.resp_bytes_per_pair", Unit: "B", Better: "lower"},
	{Name: "simjoind.append_inmem_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.point_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.join_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_rpcs_per_req", Unit: "count", Better: "lower"},
	{Name: "rclient.retries", Unit: "count", Better: "lower"},
	{Name: "gateway.point_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.join_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.append_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.priced_per_join", Unit: "count", Better: "lower"},
	{Name: "gateway.shed", Unit: "count", Better: "lower"},
	{Name: "store.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_append_ms", Unit: "ms", Better: "lower"},
	{Name: "store.fsyncs_per_append", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.compactions", Unit: "count", Better: "lower"},
	{Name: "store.compaction_ms", Unit: "ms", Better: "lower"},
	{Name: "store.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "live.append_ms", Unit: "ms", Better: "lower"},
	{Name: "live.delta_pairs_per_batch", Unit: "count", Better: "lower"},
	{Name: "live.event_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.evictions", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "diag.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diag.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "diag.spans", Unit: "count", Better: "lower"},
}

// workloads lists the workload names in BENCHMARK.json's order.
var workloads = []string{"join_pairs", "join_highdim", "serve_query", "serve_ingest"}

// outcome is what one workload run hands back: how many ops it attempted
// and how many failed, and the metric values it measured, by name.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	notes             []string
}

// phase collects what one measuring phase observed. Every sample carries
// the key of its op: ops with one key are repeats of one piece of work —
// the same call on the same input, from the same state.
type phase struct {
	prim, side       latencies
	primKey, sideKey []int
	// traced and untraced split prim by whether the op was traced; a
	// traced run fills them, and they cover the same schedule.
	traced, untraced latencies
	wall             time.Duration
}

// primary records one primary op's latency; rec is the recorder the op
// ran under, nil if it ran untraced.
func (p *phase) primary(cfg runConfig, rec *recorder, key int, took time.Duration) {
	p.prim.add(took)
	p.primKey = append(p.primKey, key)
	switch {
	case cfg.rec == nil:
	case rec != nil:
		p.traced.add(took)
	default:
		p.untraced.add(took)
	}
}

// sideOp records one side op's latency.
func (p *phase) sideOp(key int, took time.Duration) {
	p.side.add(took)
	p.sideKey = append(p.sideKey, key)
}

// merge adds what another connection, or another slice, observed.
func (p *phase) merge(o phase) {
	p.prim = append(p.prim, o.prim...)
	p.primKey = append(p.primKey, o.primKey...)
	p.side = append(p.side, o.side...)
	p.sideKey = append(p.sideKey, o.sideKey...)
	p.traced = append(p.traced, o.traced...)
	p.untraced = append(p.untraced, o.untraced...)
}

// undisturbedPct is the percentile of an op's repeats that stands for the
// op: with ten repeats or fewer, the fastest.
const undisturbedPct = 10

// undisturbed returns, for each op — each key — the undisturbedPct-th
// percentile of its repeats' latencies. The machine is a few cores of a
// shared host: other tenants stall the program for anything from a
// millisecond to seconds, in some minutes more often than not, and never
// speed it up. So the low end of an op's repeats is the program's own
// time, and it repeats from run to run, which the middle does not. An op
// with fewer than half the repeats of the most-repeated one — the far end
// of a schedule that only the fastest slice reached — is left out.
func undisturbed(keys []int, ms latencies) []float64 {
	byKey := map[int]latencies{}
	most := 0
	for i, k := range keys {
		byKey[k] = append(byKey[k], ms[i])
		most = max(most, len(byKey[k]))
	}
	var out []float64
	for _, l := range byKey {
		if 2*len(l) >= most {
			out = append(out, l.p(undisturbedPct))
		}
	}
	return out
}

// endToEnd fills the end-to-end values from the run's slices, pooled: the
// latencies are medians over the distinct ops of the schedule, each op at
// its undisturbed time. Memory is not disturbed the way time is:
// peak_rss_mb is the median of rssMB, which holds one peak per slice.
func (o *outcome) endToEnd(slices []phase, rssMB []float64) {
	var all phase
	for _, p := range slices {
		all.merge(p)
	}
	o.values["op_p50_ms"] = median(undisturbed(all.primKey, all.prim))
	o.values["side_p50_ms"] = median(undisturbed(all.sideKey, all.side))
	o.values["peak_rss_mb"] = median(rssMB)
}

// traceDiag records what tracing cost — the traced ops' median latency
// over that of the untraced ops interleaved with them — and the phase as
// the clock saw it, the machine's stalls included: primary ops per second
// of wall time, and the primary op's latency at the highest percentile its
// sample count supports.
func (o *outcome) traceDiag(p phase) {
	o.values["trace.overhead_share"] = ratio(p.traced.p(50), p.untraced.p(50)) - 1
	o.values["diag.ops_per_s"] = ratio(float64(len(p.prim)), p.wall.Seconds())
	pct := highestSupported(len(p.prim))
	o.values["diag.op_tail_pct"] = pct
	o.values["diag.op_tail_ms"] = p.prim.p(pct)
}

// tally counts attempted and failed ops from any goroutine and keeps the
// first few failure messages.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	notes             []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}
