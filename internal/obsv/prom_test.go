package obsv

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.Write(&sb)
	return sb.String()
}

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "a test counter")
	c.Inc()
	c.Add(4)
	out := render(r)
	for _, want := range []string{
		"# HELP test_total a test counter\n",
		"# TYPE test_total counter\n",
		"test_total 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecRender(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("req_total", "requests", "route")
	v.With("GET /b").Inc()
	v.With("GET /a").Add(2)
	v.With("GET /a").Inc() // same child
	two := r.NewCounterVec("gw_shed_total", "Shed requests.", "tenant", "reason")
	two.With("acme", "rate").Add(3)
	two.With("acme", "inflight").Inc()
	two.With("beta", "rate").Inc()
	two.With("ac", "me").Inc()
	out := render(r)
	// Children in deterministic order: by the first label value, then
	// the second — "ac" before "acme" although ',' and 'm' both follow it.
	for _, want := range []string{
		"# TYPE gw_shed_total counter",
		`req_total{route="GET /a"} 3` + "\n" + `req_total{route="GET /b"} 1` + "\n",
		`gw_shed_total{tenant="ac",reason="me"} 1` + "\n" +
			`gw_shed_total{tenant="acme",reason="inflight"} 1` + "\n" +
			`gw_shed_total{tenant="acme",reason="rate"} 3` + "\n" +
			`gw_shed_total{tenant="beta",reason="rate"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := two.With("acme", "rate").Value(); got != 3 {
		t.Errorf("With returned a fresh child: %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 20} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-20.65) > 1e-9 {
		t.Errorf("Sum = %g, want 20.65", h.Sum())
	}
	out := render(r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1 (le is inclusive)
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecRender(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("lat_seconds", "latency", LatencyBuckets(), "route")
	v.With("GET /x").Observe(0.003)
	two := r.NewHistogramVec("gw_arm_latency_seconds", "Per-arm latency.", []float64{0.1, 1}, "experiment", "arm")
	two.With("exp1", "incumbent").Observe(0.05)
	two.With("exp1", "incumbent").Observe(0.5)
	two.With("exp1", "candidate").Observe(2)
	out := render(r)
	for _, want := range []string{
		`lat_seconds_bucket{route="GET /x",le="0.005"} 1`,
		`lat_seconds_bucket{route="GET /x",le="0.001"} 0`,
		`lat_seconds_bucket{route="GET /x",le="+Inf"} 1`,
		`lat_seconds_sum{route="GET /x"} 0.003`,
		`lat_seconds_count{route="GET /x"} 1`,
		"# TYPE gw_arm_latency_seconds histogram",
		`gw_arm_latency_seconds_bucket{experiment="exp1",arm="incumbent",le="0.1"} 1`,
		`gw_arm_latency_seconds_bucket{experiment="exp1",arm="incumbent",le="1"} 2`,
		`gw_arm_latency_seconds_bucket{experiment="exp1",arm="incumbent",le="+Inf"} 2`,
		`gw_arm_latency_seconds_sum{experiment="exp1",arm="incumbent"} 0.55`,
		`gw_arm_latency_seconds_count{experiment="exp1",arm="incumbent"} 2`,
		`gw_arm_latency_seconds_bucket{experiment="exp1",arm="candidate",le="1"} 0`,
		`gw_arm_latency_seconds_bucket{experiment="exp1",arm="candidate",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVecConcurrent scrapes while many goroutines create and bump the
// same children, for the race detector.
func TestVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("c", "h", "a", "b")
	h := reg.NewHistogramVec("hh", "h", LatencyBuckets(), "a", "b")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.With("x", "y").Inc()
				h.With("x", "y").Observe(0.01)
			}
		}()
	}
	render(reg)
	wg.Wait()
	if got := c.With("x", "y").Value(); got != 1600 {
		t.Fatalf("count = %d, want 1600", got)
	}
}

func TestLatencyBucketsLogSpaced(t *testing.T) {
	b := LatencyBuckets()
	if len(b) == 0 {
		t.Fatal("no buckets")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
		ratio := b[i] / b[i-1]
		if ratio < 1.9 || ratio > 2.6 {
			t.Errorf("bucket ratio %g at %d not log-spaced", ratio, i)
		}
	}
}

func TestGaugeFuncs(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("up", "one", func() float64 { return 1 })
	r.NewGaugeVecFunc("worker_up", "per worker", "worker", func() map[string]float64 {
		return map[string]float64{"http://w1": 1, "http://w2": 0}
	})
	out := render(r)
	for _, want := range []string{
		"# TYPE up gauge\nup 1\n",
		`worker_up{worker="http://w1"} 1`,
		`worker_up{worker="http://w2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c_total", "counts", "k")
	v.With(`a"b\c` + "\n").Inc()
	v.With("nul\x00byte").Inc() // the multi-label key separator, in a one-label value
	out := render(r)
	for _, want := range []string{`c_total{k="a\"b\\c\n"} 1`, "c_total{k=\"nul\x00byte\"} 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets())
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Errorf("Count = %d, want 4000", h.Count())
	}
	if math.Abs(h.Sum()-4.0) > 1e-6 {
		t.Errorf("Sum = %g, want 4", h.Sum())
	}
}

func ExampleRegistry() {
	r := NewRegistry()
	c := r.NewCounterVec("simjoind_requests_total", "requests by route", "route")
	c.With("GET /healthz").Inc()
	var sb strings.Builder
	r.Write(&sb)
	fmt.Print(sb.String())
	// Output:
	// # HELP simjoind_requests_total requests by route
	// # TYPE simjoind_requests_total counter
	// simjoind_requests_total{route="GET /healthz"} 1
}
