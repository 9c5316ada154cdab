// Package stats provides the instrumentation the performance evaluation is
// built on: work counters shared by every join algorithm (distance
// computations, candidates, node visits, page I/Os), wall-clock stopwatches,
// and aligned-table / CSV reporters used by the reproduction harness.
package stats

import (
	"sync/atomic"
	"time"
)

// Counters accumulates the work metrics of one algorithm run. All increments
// are atomic so parallel joins can share one Counters; reads via Snapshot
// are consistent enough for reporting (the algorithms quiesce before the
// harness reads).
type Counters struct {
	distComps  atomic.Int64 // full (or early-exited) distance evaluations
	candidates atomic.Int64 // candidate pairs inspected before the distance test
	results    atomic.Int64 // pairs reported
	nodeVisits atomic.Int64 // index nodes touched during the join
	pageReads  atomic.Int64 // simulated page fetches (external algorithms)
	pageWrites atomic.Int64 // simulated page writes (external algorithms)
}

// AddDistComps records n distance evaluations.
func (c *Counters) AddDistComps(n int64) { c.distComps.Add(n) }

// AddCandidates records n candidate pairs inspected.
func (c *Counters) AddCandidates(n int64) { c.candidates.Add(n) }

// AddResults records n reported pairs.
func (c *Counters) AddResults(n int64) { c.results.Add(n) }

// AddNodeVisits records n index-node visits.
func (c *Counters) AddNodeVisits(n int64) { c.nodeVisits.Add(n) }

// AddPageReads records n simulated page reads.
func (c *Counters) AddPageReads(n int64) { c.pageReads.Add(n) }

// AddPageWrites records n simulated page writes.
func (c *Counters) AddPageWrites(n int64) { c.pageWrites.Add(n) }

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.distComps.Store(0)
	c.candidates.Store(0)
	c.results.Store(0)
	c.nodeVisits.Store(0)
	c.pageReads.Store(0)
	c.pageWrites.Store(0)
}

// Snapshot is a plain-value copy of a Counters, safe to store and compare.
type Snapshot struct {
	DistComps  int64
	Candidates int64
	Results    int64
	NodeVisits int64
	PageReads  int64
	PageWrites int64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		DistComps:  c.distComps.Load(),
		Candidates: c.candidates.Load(),
		Results:    c.results.Load(),
		NodeVisits: c.nodeVisits.Load(),
		PageReads:  c.pageReads.Load(),
		PageWrites: c.pageWrites.Load(),
	}
}

// Sub returns the element-wise difference s − o, for measuring one phase of
// a longer run.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		DistComps:  s.DistComps - o.DistComps,
		Candidates: s.Candidates - o.Candidates,
		Results:    s.Results - o.Results,
		NodeVisits: s.NodeVisits - o.NodeVisits,
		PageReads:  s.PageReads - o.PageReads,
		PageWrites: s.PageWrites - o.PageWrites,
	}
}

// Stopwatch measures elapsed wall-clock time across named phases.
type Stopwatch struct {
	start time.Time
}

// Start returns a running stopwatch.
func Start() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since Start.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// Lap returns the time since Start and restarts the watch.
func (s *Stopwatch) Lap() time.Duration {
	d := time.Since(s.start)
	s.start = time.Now()
	return d
}
