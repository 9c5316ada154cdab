// Package querylog is the query journal of the observability plane: a
// bounded, concurrency-safe record of every join-shaped query a daemon
// served — what was asked, what the planner predicted, what actually
// happened, and under which trace ID — so estimate-vs-actual accuracy,
// per-algorithm latency and individual slow queries are inspectable
// per query, after the fact, without any external collector.
//
// Retention is priority-aware, not purely FIFO: ordinary records live
// in one fixed ring, while records worth keeping longer — slow queries,
// and queries whose estimate missed the actual result size by more than
// MispredictFactor in either direction — are pinned into a second ring
// that only other pinned records can evict. A burst of healthy traffic
// therefore cannot flush the one query you need to debug.
package querylog

import (
	"sync"
	"time"
)

// DefaultCapacity is the journal size New uses for capacity <= 0:
// enough recent history to debug an incident, bounded memory forever.
const DefaultCapacity = 256

// DefaultSlowThreshold is the slow cutoff: a query at least this long is
// marked slow and pinned. Joins on daemon-sized datasets complete well
// under this; anything slower is worth pinning.
const DefaultSlowThreshold = 250 * time.Millisecond

// MispredictFactor is how far the planner's estimate may deviate from
// the actual result size (in either direction) before the record is
// pinned as a misprediction.
const MispredictFactor = 10

// Outcome classifies how a journaled query ended.
type Outcome string

const (
	// OutcomeOK is a query that ran and answered normally.
	OutcomeOK Outcome = "ok"
	// OutcomeError is a query that failed validation or execution.
	OutcomeError Outcome = "error"
	// OutcomeRejected is a query refused by admission control (429).
	OutcomeRejected Outcome = "rejected"
	// OutcomeDegraded is an over-budget query that ran counting-only.
	OutcomeDegraded Outcome = "degraded"
)

// Record is one journaled query, JSON-shaped for GET /debug/queries.
// EstimatedPairs is -1 when the run carried no pre-run estimate.
type Record struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      string    `json:"kind"` // selfjoin, join, knn, range, watch
	Dataset   string    `json:"dataset"`
	Dataset2  string    `json:"dataset2,omitempty"`
	Eps       float64   `json:"eps,omitempty"`
	Metric    string    `json:"metric,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	Keys      string    `json:"keys,omitempty"` // ε-kdB key kind: raw, pivot/<k>
	Stream    bool      `json:"stream,omitempty"`

	EstimatedPairs int64 `json:"estimated_pairs"`
	ActualPairs    int64 `json:"actual_pairs"`
	DistComps      int64 `json:"dist_comps,omitempty"`
	Candidates     int64 `json:"candidates,omitempty"`
	BuildNS        int64 `json:"build_ns,omitempty"`
	ProbeNS        int64 `json:"probe_ns,omitempty"`
	CollectNS      int64 `json:"collect_ns,omitempty"`
	ElapsedNS      int64 `json:"elapsed_ns"`
	// Tail is how many points a worker's range/knn query scanned past its
	// point index's tree (appended since the last build).
	Tail int64 `json:"tail,omitempty"`

	// Shards is the fan-out width of a coordinator-side record (0 on
	// workers).
	Shards int `json:"shards,omitempty"`
	// Workers is how many goroutines a worker's join ran on, resolved
	// from the request's workers (0 on a coordinator, which runs no
	// engine, and on range/knn/watch records).
	Workers int `json:"workers,omitempty"`

	TraceID string  `json:"trace_id,omitempty"`
	Outcome Outcome `json:"outcome"`
	Error   string  `json:"error,omitempty"`

	// Slow, Mispredicted and Pinned are filled by Add from the record's
	// timings and estimate; callers leave them zero.
	Slow         bool `json:"slow"`
	Mispredicted bool `json:"mispredicted"`
	Pinned       bool `json:"pinned"`
}

// Elapsed returns the query's wall time.
func (r Record) Elapsed() time.Duration { return time.Duration(r.ElapsedNS) }

// Log is the journal: two fixed rings under one mutex. All methods are
// safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	seq uint64

	normal ring
	pinned ring

	totalAdded int64
	slowAdded  int64
}

// New returns a Log retaining the last capacity ordinary records
// (DefaultCapacity when capacity <= 0) plus up to capacity/4 pinned
// ones (minimum 8).
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	pcap := capacity / 4
	if pcap < 8 {
		pcap = 8
	}
	return &Log{
		normal: newRing(capacity),
		pinned: newRing(pcap),
	}
}

// mispredicted reports whether est missed actual by more than
// MispredictFactor in either direction. est < 0 (no estimate) never
// counts; zeros clamp to one so an estimate of 0 against 5 actual pairs
// is a miss of 5×, not infinity.
func mispredicted(est, actual int64) bool {
	if est < 0 {
		return false
	}
	e, a := est, actual
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	return e > MispredictFactor*a || a > MispredictFactor*e
}

// Add journals r: Seq is assigned, Time defaults to now, and the
// Slow/Mispredicted/Pinned classification is computed. The annotated
// record is returned so callers can charge metrics off the same
// classification the journal stored.
func (l *Log) Add(r Record) Record {
	l.mu.Lock()
	l.seq++
	r.Seq = l.seq
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	r.Slow = time.Duration(r.ElapsedNS) >= DefaultSlowThreshold
	r.Mispredicted = mispredicted(r.EstimatedPairs, r.ActualPairs)
	r.Pinned = r.Slow || r.Mispredicted
	l.totalAdded++
	if r.Slow {
		l.slowAdded++
	}
	if r.Pinned {
		l.pinned.push(r)
	} else {
		l.normal.push(r)
	}
	l.mu.Unlock()
	return r
}

// Filter narrows a Snapshot. The zero value selects everything.
type Filter struct {
	// Dataset keeps only records naming it (as either side of a join).
	Dataset string
	// SlowOnly keeps only records classified slow.
	SlowOnly bool
	// Limit caps the result length (0 = no cap).
	Limit int
}

func (f Filter) match(r Record) bool {
	if f.SlowOnly && !r.Slow {
		return false
	}
	if f.Dataset != "" && r.Dataset != f.Dataset && r.Dataset2 != f.Dataset {
		return false
	}
	return true
}

// Snapshot returns the retained records matching f, newest first
// (descending Seq), pinned and ordinary interleaved by recency. The
// returned slice is the caller's to keep.
func (l *Log) Snapshot(f Filter) []Record {
	l.mu.Lock()
	a := l.normal.snapshot() // oldest first
	b := l.pinned.snapshot()
	l.mu.Unlock()
	out := make([]Record, 0, len(a)+len(b))
	// Merge the two seq-ascending rings from their tails, emitting the
	// larger seq first — newest-first without a sort.
	i, j := len(a)-1, len(b)-1
	for i >= 0 || j >= 0 {
		var r Record
		switch {
		case j < 0 || (i >= 0 && a[i].Seq > b[j].Seq):
			r = a[i]
			i--
		default:
			r = b[j]
			j--
		}
		if !f.match(r) {
			continue
		}
		out = append(out, r)
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}

// Len returns how many records are currently retained (both rings).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.normal.len() + l.pinned.len()
}

// Totals reports how many records were ever journaled and how many of
// those were slow — the monotonic feed for scrape-time counters.
func (l *Log) Totals() (total, slow int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalAdded, l.slowAdded
}

// ring is a fixed-capacity FIFO of records.
type ring struct {
	buf   []Record
	next  int
	wrapd bool
}

func newRing(capacity int) ring {
	if capacity < 1 {
		capacity = 1
	}
	return ring{buf: make([]Record, capacity)}
}

func (r *ring) push(rec Record) {
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapd = true
	}
}

func (r *ring) len() int {
	if r.wrapd {
		return len(r.buf)
	}
	return r.next
}

// snapshot returns the retained records oldest first.
func (r *ring) snapshot() []Record {
	if !r.wrapd {
		out := make([]Record, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
