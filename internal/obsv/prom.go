package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a fixed set of metrics and renders them in the
// Prometheus text exposition format (version 0.0.4). It is deliberately
// tiny — counters, histograms and gauge callbacks, a few labels —
// because that is all the daemons need and the container must not grow
// external dependencies.
type Registry struct {
	mu      sync.Mutex
	metrics []renderer
}

// renderer is anything the registry can write in exposition format.
type renderer interface {
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m renderer) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Write renders every registered metric in registration order.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	ms := append([]renderer(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.render(w)
	}
}

// Handler serves the registry as Prometheus text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		r.Write(&sb)
		_, _ = io.WriteString(w, sb.String())
	})
}

// header writes the # HELP / # TYPE preamble.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer sample.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for counter semantics; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// namedCounter is a registry-owned unlabeled counter.
type namedCounter struct {
	name, help string
	Counter
}

func (c *namedCounter) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &namedCounter{name: name, help: help}
	r.add(c)
	return &c.Counter
}

// family is the label-values → child table under CounterVec and
// HistogramVec. Children are keyed by their label values joined with NUL
// — the lowest byte, so sorting the keys sorts by the first label, then
// the second, and so on.
type family[T any] struct {
	name, help string
	labels     []string
	newChild   func() *T
	mu         sync.Mutex
	children   map[string]*T
}

func newFamily[T any](name, help string, labels []string, newChild func() *T) family[T] {
	return family[T]{name: name, help: help, labels: labels, newChild: newChild, children: make(map[string]*T)}
}

// With returns the child for the given label values (one per label the
// family was registered with, in that order), creating it on first use.
func (f *family[T]) With(values ...string) *T {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := values[0]
	if len(values) > 1 {
		key = strings.Join(values, "\x00")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = f.newChild()
		f.children[key] = c
	}
	return c
}

// each calls fn per child in deterministic order with the child's
// rendered label pairs: a="x",b="y".
func (f *family[T]) each(fn func(labels string, c *T)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var sb strings.Builder
		// SplitN, so a value that itself holds a NUL (a label can echo
		// request input) cannot yield more values than labels.
		for i, v := range strings.SplitN(k, "\x00", len(f.labels)) {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=\"%s\"", f.labels[i], escapeLabel(v))
		}
		fn(sb.String(), f.children[k])
	}
}

// CounterVec is a family of counters keyed by one or more label values.
type CounterVec struct{ family[Counter] }

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{newFamily(name, help, labels, func() *Counter { return &Counter{} })}
	r.add(v)
	return v
}

func (v *CounterVec) render(w io.Writer) {
	header(w, v.name, v.help, "counter")
	v.each(func(labels string, c *Counter) {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, labels, c.Value())
	})
}

// LatencyBuckets returns the fixed log-spaced bucket bounds (seconds)
// every latency histogram in the repository uses: a 1–2.5–5 ladder from
// 100 µs to 10 s. Fixed buckets keep scrapes from different builds and
// different daemons directly comparable.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, by convention). Observations are lock-free.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	count   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeSamples renders the _bucket/_sum/_count lines under the given
// rendered label pairs ("" renders unlabeled samples).
func (h *Histogram) writeSamples(w io.Writer, name, labels string) {
	var cum int64
	prefix, braced := "", ""
	if labels != "" {
		prefix, braced = labels+",", "{"+labels+"}"
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, prefix, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, h.Count())
}

// namedHistogram is a registry-owned unlabeled histogram.
type namedHistogram struct {
	name, help string
	*Histogram
}

func (h *namedHistogram) render(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	h.writeSamples(w, h.name, "")
}

// NewHistogram registers and returns an unlabeled fixed-bucket histogram.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &namedHistogram{name: name, help: help, Histogram: newHistogram(bounds)}
	r.add(h)
	return h.Histogram
}

// HistogramVec is a family of fixed-bucket histograms keyed by one or
// more label values.
type HistogramVec struct{ family[Histogram] }

// NewHistogramVec registers and returns a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{newFamily(name, help, labels, func() *Histogram { return newHistogram(bounds) })}
	r.add(v)
	return v
}

func (v *HistogramVec) render(w io.Writer) {
	header(w, v.name, v.help, "histogram")
	v.each(func(labels string, h *Histogram) { h.writeSamples(w, v.name, labels) })
}

// gaugeFunc samples a callback at scrape time.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&gaugeFunc{name: name, help: help, fn: fn})
}

// counterFunc samples a monotonic callback at scrape time, for counters
// whose source of truth lives elsewhere (e.g. an HTTP client's retry
// tally).
type counterFunc struct {
	name, help string
	fn         func() int64
}

func (c *counterFunc) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonically non-decreasing.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.add(&counterFunc{name: name, help: help, fn: fn})
}

// HistogramSample is one scrape's worth of histogram state for
// NewHistogramFunc: ascending upper bounds plus per-bucket counts, with
// Counts one longer than Bounds (the last entry is the +Inf overflow
// bucket) and Sum the (possibly approximated) sum of observations.
type HistogramSample struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// histogramFunc samples a full histogram from a callback at scrape
// time, for distributions whose source of truth lives elsewhere (e.g.
// runtime/metrics pause histograms).
type histogramFunc struct {
	name, help string
	fn         func() HistogramSample
}

func (h *histogramFunc) render(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	s := h.fn()
	var cum uint64
	for i, b := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, formatFloat(b), cum)
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// NewHistogramFunc registers a histogram whose buckets are read from fn
// at scrape time. fn must return cumulative-consistent (monotone over
// time) per-bucket counts.
func (r *Registry) NewHistogramFunc(name, help string, fn func() HistogramSample) {
	r.add(&histogramFunc{name: name, help: help, fn: fn})
}

// gaugeVecFunc samples a label → value callback at scrape time.
type gaugeVecFunc struct {
	name, help, label string
	fn                func() map[string]float64
}

func (g *gaugeVecFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	vals := g.fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n", g.name, g.label, escapeLabel(k), formatFloat(vals[k]))
	}
}

// NewGaugeVecFunc registers a one-label gauge family computed at scrape
// time (e.g. per-worker health probed on demand).
func (r *Registry) NewGaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.add(&gaugeVecFunc{name: name, help: help, label: label, fn: fn})
}
