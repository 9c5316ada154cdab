// Package trace is the distributed-tracing half of the observability
// layer: a dependency-free Trace/Span model with monotonic timings,
// parent links, key/value attributes and per-span counters, W3C
// traceparent propagation, and a fixed-capacity ring buffer of recently
// completed traces.
//
// The design rule matches the metrics side of obsv: the instrumented
// code pays nothing when tracing is off. Every Span method is a no-op
// on a nil receiver, so call sites thread a possibly-nil *Span without
// guards, and a disabled run costs one nil check per instrumentation
// point.
//
// Lifecycle: a Tracer owns the ring. Tracer.Start (or StartRemote, to
// continue a trace arriving over HTTP) opens a root span; Span.Child
// opens children. Each span records its data into the trace when it
// ends; when the root ends, the assembled trace — root plus every child
// that ended before it — is pushed into the ring. Spans that outlive
// their root are dropped, so well-behaved callers end children first
// (handlers naturally do: the fan-out completes before the server span
// closes).
package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// DefaultCapacity is the ring size Tracers use when New is given a
// non-positive capacity.
const DefaultCapacity = 128

// Tracer mints spans and retains completed traces. A nil *Tracer is a
// valid disabled tracer: Start and StartRemote return nil spans.
type Tracer struct {
	ring *Ring
}

// New returns a Tracer retaining the last capacity completed traces
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: NewRing(capacity)}
}

// Traces returns the retained completed traces, oldest first.
func (t *Tracer) Traces() []TraceData {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Start opens the root span of a new trace.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, newTraceID(), SpanID{})
}

// StartRemote opens a root span continuing the trace named by a W3C
// traceparent header value: the new span shares the remote trace ID and
// links the remote span as its parent. A missing or malformed header
// falls back to a fresh trace, so callers pass the header through
// unchecked.
func (t *Tracer) StartRemote(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	tid, parent, ok := ParseTraceParent(traceparent)
	if !ok {
		return t.Start(name)
	}
	return t.start(name, tid, parent)
}

func (t *Tracer) start(name string, tid TraceID, parent SpanID) *Span {
	tr := &liveTrace{tracer: t, id: tid}
	sp := &Span{
		tr:     tr,
		id:     newSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	tr.root = sp.id
	return sp
}

// liveTrace accumulates the spans of one in-flight trace.
type liveTrace struct {
	tracer *Tracer
	id     TraceID
	// root is the ID of the span the tracer opened the trace with; its
	// end seals the trace. Set once at construction, immutable after.
	root SpanID

	mu    sync.Mutex
	ended []SpanData
}

// record appends one ended span's data. root marks the trace's root
// span, whose end seals the trace into the tracer's ring.
func (tr *liveTrace) record(sd SpanData, root bool) {
	tr.mu.Lock()
	tr.ended = append(tr.ended, sd)
	if !root {
		tr.mu.Unlock()
		return
	}
	spans := make([]SpanData, len(tr.ended))
	copy(spans, tr.ended)
	tr.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	tr.tracer.ring.Push(TraceData{TraceID: tr.id.String(), Spans: spans})
}

// Span is one timed node of a trace. All methods are safe on a nil
// receiver (no-ops / zero values), which is how disabled tracing is
// threaded through call sites, and safe for concurrent use, so a
// scatter's goroutines can annotate their own child spans freely.
// Durations come from Go's monotonic clock (time.Since), so spans
// order correctly even across wall-clock adjustments.
type Span struct {
	tr     *liveTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu       sync.Mutex
	attrs    []Attr
	counters []Counter
	children []SpanData // completed-interval children recorded wholesale
	ended    bool
}

// Attr is one string key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Counter is one integer measurement on a span (work counts, attempt
// tallies) — kept apart from Attrs so consumers can aggregate without
// parsing.
type Counter struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// SpanID returns the span's own ID (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// StartTime returns when the span started (zero time for a nil span).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// TraceParent renders the span as an outgoing W3C traceparent header
// value, or "" for a nil span.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.tr.id, s.id)
}

// Tracer returns the tracer the span's trace records into, or nil for a
// nil span: work that outlives a request continues its trace as a new
// root there, StartRemote(name, s.TraceParent()).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr.tracer
}

// Child opens a child span. On a nil receiver it returns nil, so a
// whole call tree stays no-op when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:     s.tr,
		id:     newSpanID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// SetAttr annotates the span. Keys are not deduplicated; last write
// appears last.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AddCounter records one integer measurement on the span.
func (s *Span) AddCounter(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counters = append(s.counters, Counter{Key: key, Value: value})
	s.mu.Unlock()
}

// ChildInterval records an already-completed child span covering
// [start, start+d). It exists for phases measured by other
// instrumentation (the engines' obsv.Phases timers): the join layer
// converts those totals into spans without re-timing the engines.
func (s *Span) ChildInterval(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	sd := SpanData{
		TraceID:    s.tr.id.String(),
		SpanID:     newSpanID().String(),
		ParentID:   s.id.String(),
		Name:       name,
		Start:      start,
		DurationNS: d.Nanoseconds(),
	}
	s.mu.Lock()
	s.children = append(s.children, sd)
	s.mu.Unlock()
}

// End seals the span and records it into its trace; ending the root
// span pushes the assembled trace into the tracer's ring. End is
// idempotent — second and later calls are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:    s.tr.id.String(),
		SpanID:     s.id.String(),
		Name:       s.name,
		Start:      s.start,
		DurationNS: d.Nanoseconds(),
		Attrs:      s.attrs,
		Counters:   s.counters,
	}
	intervals := s.children
	s.children = nil
	s.mu.Unlock()
	// A root span continuing a remote trace keeps its remote parent
	// link, so the wire shows one connected tree across processes.
	if !s.parent.IsZero() {
		sd.ParentID = s.parent.String()
	}
	root := s.isRoot()
	for _, c := range intervals {
		s.tr.record(c, false)
	}
	s.tr.record(sd, root)
}

// isRoot reports whether the span is its trace's root: the span the
// tracer opened the trace with. A remote parent link does not make a
// span a child locally — each process seals its own trace view.
func (s *Span) isRoot() bool { return s.id == s.tr.root }

// SpanData is one completed span, JSON-shaped for /debug/traces.
type SpanData struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Counters   []Counter `json:"counters,omitempty"`
}

// Duration returns the span's length as a time.Duration.
func (sd SpanData) Duration() time.Duration { return time.Duration(sd.DurationNS) }

// Attr returns the value of the named attribute ("" when absent; the
// last write wins when a key repeats).
func (sd SpanData) Attr(key string) string {
	v := ""
	for _, a := range sd.Attrs {
		if a.Key == key {
			v = a.Value
		}
	}
	return v
}

// TraceData is one completed trace: every span that ended before (or
// with) the root, ordered by start time.
type TraceData struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
}

// Root returns the trace's root span — the one whose parent is not a
// span of this trace (a remote parent or none at all).
func (td TraceData) Root() (SpanData, bool) {
	local := make(map[string]bool, len(td.Spans))
	for _, s := range td.Spans {
		local[s.SpanID] = true
	}
	for _, s := range td.Spans {
		if s.ParentID == "" || !local[s.ParentID] {
			return s, true
		}
	}
	return SpanData{}, false
}

// ChildrenOf returns the spans directly under the given span ID, in
// start order.
func (td TraceData) ChildrenOf(id string) []SpanData {
	var out []SpanData
	for _, s := range td.Spans {
		if s.ParentID == id {
			out = append(out, s)
		}
	}
	return out
}

// ctxKey is the context key type for span propagation.
type ctxKey struct{}

// NewContext returns ctx carrying sp. A nil span stores nothing, so
// FromContext keeps returning whatever was there before (usually nil).
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil. The nil result
// composes: every Span method no-ops on nil, so callers never branch.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
