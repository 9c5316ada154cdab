package gateway

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/rclient"
)

// fakeBackend is a scriptable stand-in for a worker/coordinator: it
// answers the estimate, health and join surface and records what the
// gateway sent it.
type fakeBackend struct {
	mu            sync.Mutex
	estimatePairs int64
	joinDelay     time.Duration
	// traceStatus answers GET /debug/traces/{id}: 0 is a 404, a backend
	// that retained nothing for the ID.
	traceStatus int
	// pairsFor maps forced algorithm → returned pair rows; "" is the
	// default arm.
	pairsFor map[string][][2]int64
	// holdFor maps forced algorithm → a channel its joins wait on until
	// it closes (or the request is cancelled).
	holdFor map[string]chan struct{}
	seen    []map[string]any
	srv     *httptest.Server
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	b := &fakeBackend{
		estimatePairs: 100,
		pairsFor:      map[string][][2]int64{"": {{0, 1}, {1, 2}}},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /datasets", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, []map[string]any{{"name": "pts", "len": 100, "dims": 8}})
	})
	mux.HandleFunc("GET /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{"name": r.PathValue("name"), "len": 100, "dims": 8}
		if r.URL.Query().Get("eps") != "" {
			b.mu.Lock()
			out["estimate"] = map[string]any{"pairs": b.estimatePairs}
			b.mu.Unlock()
		}
		api.WriteJSON(w, out)
	})
	join := func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			api.Error(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		b.mu.Lock()
		b.seen = append(b.seen, m)
		algo, _ := m["algorithm"].(string)
		pairs, ok := b.pairsFor[algo]
		if !ok {
			pairs = b.pairsFor[""]
		}
		delay := b.joinDelay
		hold := b.holdFor[algo]
		b.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if hold != nil {
			select {
			case <-hold:
			case <-r.Context().Done():
				return
			}
		}
		if stream, _ := m["stream"].(bool); stream {
			w.Header().Set("Content-Type", "application/x-ndjson")
			for _, p := range pairs {
				fmt.Fprintf(w, `{"i":%d,"j":%d}`+"\n", p[0], p[1])
			}
			return
		}
		api.WriteJSON(w, map[string]any{"pairs": pairs, "total": len(pairs)})
	}
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		status := cmp.Or(b.traceStatus, http.StatusNotFound)
		b.mu.Unlock()
		api.Error(w, status, "trace %s: status %d", r.PathValue("id"), status)
	})
	mux.HandleFunc("POST /datasets/{name}/selfjoin", join)
	mux.HandleFunc("POST /join", join)
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func (b *fakeBackend) seenBodies() []map[string]any {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]map[string]any(nil), b.seen...)
}

func (b *fakeBackend) setEstimate(n int64) {
	b.mu.Lock()
	b.estimatePairs = n
	b.mu.Unlock()
}

// bootGateway builds a gateway over the given backend with a fast test
// client and serves it from httptest.
func bootGateway(t *testing.T, cfg *Config, backend string) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(Options{
		Backend: backend,
		Client: &rclient.Client{
			MaxRetries: 1,
			BaseDelay:  2 * time.Millisecond,
			MaxDelay:   20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.SetConfig(cfg); err != nil {
		t.Fatalf("SetConfig: %v", err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

func doJoin(t *testing.T, gwURL, key, dataset string, body map[string]any, hdr map[string]string) *http.Response {
	t.Helper()
	raw, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, gwURL+"/datasets/"+dataset+"/selfjoin", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	return resp
}

func oneTenant(name, key string, mut func(*Tenant)) *Config {
	tn := Tenant{Name: name, Key: key}
	if mut != nil {
		mut(&tn)
	}
	return &Config{Tenants: []Tenant{tn}}
}

func TestGatewayAuth(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "sekrit", nil), be.srv.URL)

	resp := doJoin(t, srv.URL, "", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", resp.StatusCode)
	}
	resp = doJoin(t, srv.URL, "wrong", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong key: status %d, want 401", resp.StatusCode)
	}
	resp = doJoin(t, srv.URL, "sekrit", "pts", map[string]any{"eps": 0.5}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good key: status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Total != 2 {
		t.Fatalf("proxied answer total=%d err=%v, want 2", out.Total, err)
	}

	// X-Api-Key is an accepted alternative to Bearer.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/datasets/pts", nil)
	req.Header.Set("X-Api-Key", "sekrit")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("X-Api-Key request: %v", err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("X-Api-Key: status %d, want 200", r2.StatusCode)
	}
}

func TestGatewayRateShed(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "k", func(tn *Tenant) {
		tn.RatePerSec = 0.0001
		tn.Burst = 2
	}), be.srv.URL)

	for i := 0; i < 2; i++ {
		resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("past burst: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	var body struct {
		Reason string `json:"reason"`
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding shed body: %v", err)
	}
	if body.Reason != "rate" || body.Tenant != "acme" {
		t.Fatalf("shed body %+v, want reason=rate tenant=acme", body)
	}
}

func TestGatewayEstimateShed(t *testing.T) {
	be := newFakeBackend(t)
	be.setEstimate(5000)
	_, srv := bootGateway(t, oneTenant("acme", "k", func(tn *Tenant) {
		tn.MaxPairs = 1000
	}), be.srv.URL)

	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget join: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("estimate shed carries no Retry-After")
	}
	var body struct {
		Reason         string `json:"reason"`
		EstimatedPairs int64  `json:"estimated_pairs"`
		MaxPairs       int64  `json:"max_pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding shed body: %v", err)
	}
	resp.Body.Close()
	if body.Reason != "estimate" || body.EstimatedPairs != 5000 || body.MaxPairs != 1000 {
		t.Fatalf("shed body %+v, want estimate/5000/1000", body)
	}

	// Under budget the same query sails through.
	be.setEstimate(500)
	resp = doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-budget join: status %d, want 200", resp.StatusCode)
	}
}

func TestGatewayInFlightShed(t *testing.T) {
	be := newFakeBackend(t)
	be.mu.Lock()
	be.joinDelay = time.Second
	be.mu.Unlock()
	_, srv := bootGateway(t, oneTenant("acme", "k", func(tn *Tenant) {
		tn.MaxInFlight = 1
	}), be.srv.URL)

	done := make(chan int, 1)
	go func() {
		resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Wait until the backend holds the slow query — from then until its
	// delay elapses the tenant's single slot is provably occupied.
	deadline := time.Now().Add(5 * time.Second)
	for len(be.seenBodies()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never reached the backend")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second in-flight query: status %d, want 429", resp.StatusCode)
	}
	var body struct {
		Reason string `json:"reason"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if body.Reason != "inflight" {
		t.Fatalf("shed reason %q, want inflight", body.Reason)
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("slow query finished %d, want 200", status)
	}
}

func TestGatewayOverrideRouting(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, &Config{
		Tenants: []Tenant{{Name: "acme", Key: "k"}},
		Experiments: []Experiment{
			{Name: "force-brute", Percent: 100, Override: Override{Algorithm: "brute"}},
		},
	}, be.srv.URL)

	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5, "algorithm": "auto"}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	seen := be.seenBodies()
	if len(seen) != 1 {
		t.Fatalf("backend saw %d requests, want 1", len(seen))
	}
	if seen[0]["algorithm"] != "brute" {
		t.Fatalf("backend saw algorithm %v, want the brute override", seen[0]["algorithm"])
	}
	if seen[0]["eps"] != 0.5 {
		t.Fatalf("override disturbed eps: %v", seen[0]["eps"])
	}
}

func TestGatewayShadowDiff(t *testing.T) {
	be := newFakeBackend(t)
	// The candidate arm (forced brute) returns the same pair set →
	// zero mismatches; then a divergent set → one mismatch.
	be.mu.Lock()
	be.pairsFor["brute"] = [][2]int64{{1, 2}, {0, 1}} // same set, different order
	be.mu.Unlock()
	g, srv := bootGateway(t, &Config{
		Tenants: []Tenant{{Name: "acme", Key: "k"}},
		Experiments: []Experiment{
			{Name: "sh", Percent: 100, Shadow: true, Override: Override{Algorithm: "brute"}},
		},
	}, be.srv.URL)

	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	g.ShadowDrain()
	if got := metricValue(t, g, `simjoin_gw_shadow_diffs_total{experiment="sh"}`); got != 1 {
		t.Fatalf("shadow_diffs = %v, want 1", got)
	}
	if got := metricValue(t, g, `simjoin_gw_shadow_mismatch_total{experiment="sh"}`); got != 0 {
		t.Fatalf("order-insensitive checksum flagged a mismatch: %v", got)
	}

	be.mu.Lock()
	be.pairsFor["brute"] = [][2]int64{{0, 1}, {5, 6}}
	be.mu.Unlock()
	resp = doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	g.ShadowDrain()
	if got := metricValue(t, g, `simjoin_gw_shadow_mismatch_total{experiment="sh"}`); got != 1 {
		t.Fatalf("divergent pair set not flagged: mismatches = %v", got)
	}
	// The mismatch lands in the journal as a shadow record.
	found := false
	for _, rec := range g.Journal().Snapshot(querylog.Filter{}) {
		if rec.Kind == "shadow" && strings.Contains(rec.Error, "mismatch") {
			found = true
		}
	}
	if !found {
		t.Fatal("shadow mismatch not journaled")
	}
}

// TestGatewayShadowNeverBlocksLiveJoins holds every candidate arm at the
// backend: the first shadowWorkers shadows take the workers and wait, the
// rest must be dropped and counted, and every live join must still answer
// at once — a shadow that waits for a worker would hold its live request.
func TestGatewayShadowNeverBlocksLiveJoins(t *testing.T) {
	be := newFakeBackend(t)
	hold := make(chan struct{})
	be.mu.Lock()
	be.holdFor = map[string]chan struct{}{"brute": hold}
	be.mu.Unlock()
	g, srv := bootGateway(t, &Config{
		Tenants: []Tenant{{Name: "acme", Key: "k"}},
		Experiments: []Experiment{
			{Name: "sh", Percent: 100, Shadow: true, Override: Override{Algorithm: "brute"}},
		},
	}, be.srv.URL)
	release := sync.OnceFunc(func() { close(hold) })
	// Runs before the servers close, which wait for held requests.
	t.Cleanup(release)

	const extra = 3
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < shadowWorkers+extra; i++ {
		raw, _ := json.Marshal(map[string]any{"eps": 0.5})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/datasets/pts/selfjoin", bytes.NewReader(raw))
		req.Header.Set("Authorization", "Bearer k")
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("live join %d with %d shadows held: %v", i, min(i, shadowWorkers), err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("live join %d: status %d", i, resp.StatusCode)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("live join %d took %v with %d shadows held", i, took, min(i, shadowWorkers))
		}
	}
	// The last join's shadow may be dropped just after its answer left.
	deadline := time.Now().Add(2 * time.Second)
	for metricValue(t, g, "simjoin_gw_shadow_dropped_total") < extra && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := metricValue(t, g, "simjoin_gw_shadow_dropped_total"); got != extra {
		t.Fatalf("shadow_dropped = %v, want %d (the joins beyond %d shadow workers)", got, extra, shadowWorkers)
	}
	release()
	g.ShadowDrain()
	if got := metricValue(t, g, `simjoin_gw_shadow_diffs_total{experiment="sh"}`); got != shadowWorkers {
		t.Fatalf("shadow_diffs = %v, want %d", got, shadowWorkers)
	}
}

func TestGatewayStreamPassthrough(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "k", nil), be.srv.URL)

	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5, "stream": true}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("Content-Type %q not relayed", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if lines != 2 {
		t.Fatalf("streamed %d lines through the gateway, want 2", lines)
	}
}

func TestGatewayBackend429Passthrough(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets/{name}/selfjoin", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		api.Error(w, http.StatusTooManyRequests, "join estimated at 9999 pairs exceeds budget")
	})
	be := httptest.NewServer(mux)
	defer be.Close()
	_, srv := bootGateway(t, oneTenant("acme", "k", nil), be.URL)

	resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the backend's 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("backend Retry-After not relayed: %q", resp.Header.Get("Retry-After"))
	}
}

func TestGatewayMetricsSurface(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "k", func(tn *Tenant) {
		tn.RatePerSec = 0.0001
		tn.Burst = 1
	}), be.srv.URL)

	doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil).Body.Close()
	doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil).Body.Close() // shed: rate
	doJoin(t, srv.URL, "", "pts", map[string]any{"eps": 0.5}, nil).Body.Close()  // shed: auth

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`simjoin_gw_requests_total{tenant="acme"} 2`,
		`simjoin_gw_shed_total{tenant="acme",reason="rate"} 1`,
		`simjoin_gw_shed_total{tenant="",reason="auth"} 1`,
		`simjoin_gw_arm_requests_total{experiment="none",arm="incumbent"} 1`,
		`simjoin_gw_backend_up{backend="` + be.srv.URL + `"} 1`,
		"simjoin_gw_tenants 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestGatewayHealthz(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "k", nil), be.srv.URL)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Status   string `json:"status"`
		Mode     string `json:"mode"`
		Backends []struct {
			OK bool `json:"ok"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if out.Status != "ok" || out.Mode != "gateway" || len(out.Backends) != 1 || !out.Backends[0].OK {
		t.Fatalf("healthz %+v", out)
	}
}

// metricValue scrapes one sample from the gateway's registry text.
func metricValue(t *testing.T, g *Gateway, sample string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	g.Registry().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestGatewayListDatasets: GET /datasets through the gateway is the
// backend's answer, and a 502 when the backend is down — never an empty
// list standing in for one.
func TestGatewayListDatasets(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "k", nil), be.srv.URL)
	list := func() (int, []api.DatasetInfo) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/datasets", nil)
		req.Header.Set("Authorization", "Bearer k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /datasets: %v", err)
		}
		defer resp.Body.Close()
		var out []api.DatasetInfo
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decoding the list: %v", err)
			}
		}
		return resp.StatusCode, out
	}
	if status, out := list(); status != http.StatusOK || len(out) != 1 || out[0] != (api.DatasetInfo{Name: "pts", Len: 100, Dims: 8}) {
		t.Fatalf("list through the gateway = %d %+v, want the backend's one dataset", status, out)
	}
	be.srv.Close()
	if status, out := list(); status != http.StatusBadGateway {
		t.Fatalf("list with the backend down = %d %+v, want 502", status, out)
	}
}

// TestGatewayTraceSources: GET /debug/traces/{id} on the gateway keeps
// its own spans whatever the backend says, reports a backend that
// answered 404 (it retained nothing) as no error, and one that failed —
// a 500 the client gave up retrying, or a 403 it took as final — in
// sources[0].error.
func TestGatewayTraceSources(t *testing.T) {
	be := newFakeBackend(t)
	_, srv := bootGateway(t, oneTenant("acme", "k", nil), be.srv.URL)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/datasets/pts", nil)
	req.Header.Set("Authorization", "Bearer k")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, tc := range []struct {
		backendStatus int
		wantErr       bool
	}{{0, false}, {http.StatusInternalServerError, true}, {http.StatusForbidden, true}} {
		be.mu.Lock()
		be.traceStatus = tc.backendStatus
		be.mu.Unlock()
		resp, err := http.Get(srv.URL + "/debug/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		var tv api.TraceView
		err = json.NewDecoder(resp.Body).Decode(&tv)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %d: gateway answered %d (%v)", tc.backendStatus, resp.StatusCode, err)
		}
		if root, ok := tv.Root(); !ok || root.Name != "gw GET /datasets/{name}" {
			t.Errorf("backend %d: gateway root span = %+v", tc.backendStatus, root)
		}
		if len(tv.Sources) != 1 || tv.Sources[0].URL != be.srv.URL || (tv.Sources[0].Err != "") != tc.wantErr {
			t.Errorf("backend %d: sources = %+v, want one, error set = %v", tc.backendStatus, tv.Sources, tc.wantErr)
		}
	}
}
