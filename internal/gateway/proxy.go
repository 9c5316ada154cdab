package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

// Handler wires the gateway's routes: the full worker/coordinator REST
// surface proxied behind tenancy, plus the gateway's own health, metric
// and debug endpoints, behind the middleware every tier shares.
func (g *Gateway) Handler() http.Handler {
	srv := &api.Server{
		Registry: g.m.reg, Requests: g.m.httpRequests, Errors: g.m.httpErrors, Latency: g.m.httpLatency,
		Tracer: g.tracer, SpanPrefix: "gw ", Log: g.log, Journal: g.qlog,
		Below: []string{g.backend}, Get: g.rc.Get,
	}
	return srv.Handler(api.Routes{
		Healthz: g.handleHealthz, List: g.proxyLight,
		Get: g.proxyLight, Explain: g.proxyLight, Delete: g.proxyLight,
		Put: g.proxyUpload, Append: g.proxyUpload, Watch: g.proxyQuery("watch", true),
		SelfJoin: g.handleSelfJoin, Join: g.handleJoin,
		Range: g.proxyQuery("range", false), KNN: g.proxyQuery("knn", false),
	})
}

// apiKey extracts the presented API key: "Authorization: Bearer <key>"
// wins, "X-Api-Key: <key>" is the fallback.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(rest)
		}
		return ""
	}
	return r.Header.Get("X-Api-Key")
}

// authenticate resolves the request's tenant, answering 401 itself on a
// missing or unknown key.
func (g *Gateway) authenticate(w http.ResponseWriter, r *http.Request) (*tenantRT, bool) {
	rt, ok := g.lookup(apiKey(r))
	if !ok {
		g.m.shed.With("", "auth").Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="simjoin-gateway"`)
		api.Error(w, http.StatusUnauthorized, "missing or unknown API key")
		return nil, false
	}
	g.m.requests.With(rt.name).Inc()
	if sp := trace.FromContext(r.Context()); sp != nil {
		sp.SetAttr("tenant", rt.name)
	}
	return rt, true
}

// shedResponse answers 429 with a Retry-After header and an
// api.ShedBody naming the reason, and journals the refusal. over is the
// estimate that broke the tenant's budget, nil for the other reasons.
func (g *Gateway) shedResponse(w http.ResponseWriter, rt *tenantRT, kind, dataset, reason string, retryAfter time.Duration, msg string, over *api.OverBudget) {
	g.m.shed.With(rt.name, reason).Inc()
	secs := max(int(math.Ceil(retryAfter.Seconds())), 1)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	api.WriteStatus(w, http.StatusTooManyRequests, api.ShedBody{
		ErrorBody: api.ErrorBody{Error: msg, OverBudget: over},
		Reason:    reason, Tenant: rt.name, RetryAfterSeconds: secs,
	})
	g.qlog.Add(querylog.Record{
		Kind: kind, Dataset: dataset, EstimatedPairs: -1,
		Outcome: querylog.OutcomeRejected,
		Error:   fmt.Sprintf("tenant %q shed (%s): %s", rt.name, reason, msg),
	})
}

// admitRate charges the tenant's token bucket, shedding on exhaustion.
func (g *Gateway) admitRate(w http.ResponseWriter, rt *tenantRT, kind, dataset string) bool {
	ok, retryAfter := rt.bucket.take()
	if !ok {
		g.shedResponse(w, rt, kind, dataset, "rate", retryAfter,
			fmt.Sprintf("tenant %q rate limit exceeded", rt.name), nil)
		return false
	}
	return true
}

// admitQueue acquires a fair-queue slot, shedding when the tenant is at
// its in-flight cap and mapping a client disconnect while queued to 503.
// The returned release func must be called exactly once when non-nil.
func (g *Gateway) admitQueue(w http.ResponseWriter, r *http.Request, rt *tenantRT, kind, dataset string) (func(), bool) {
	start := time.Now()
	release, err := g.queue.acquire(r.Context(), rt)
	if err != nil {
		if err == errTenantBusy {
			g.shedResponse(w, rt, kind, dataset, "inflight", time.Second,
				fmt.Sprintf("tenant %q already has max_in_flight queries running", rt.name), nil)
		} else {
			g.m.shed.With(rt.name, "queue").Inc()
			api.Error(w, http.StatusServiceUnavailable, "request abandoned while queued: %v", err)
		}
		return nil, false
	}
	g.m.queueWait.Observe(time.Since(start).Seconds())
	return release, true
}

// price asks the backend for a predicted self-join size and compares it
// to the tenant's budget. A pricing failure admits — an unreachable
// estimate endpoint must not turn into an outage — mirroring the
// coordinator's own admission contract.
func (g *Gateway) price(r *http.Request, dataset string, eps float64, metric string, budget int64) (est int64, over bool) {
	g.m.priced.Inc()
	url := fmt.Sprintf("%s/datasets/%s?eps=%s", g.backend, dataset, strconv.FormatFloat(eps, 'g', -1, 64))
	if metric != "" {
		url += "&metric=" + metric
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return -1, false
	}
	resp, err := g.rc.Do(r.Context(), req)
	if err != nil {
		return -1, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return -1, false
	}
	var out api.DatasetDetail
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil || out.Estimate == nil {
		return -1, false
	}
	return out.Estimate.Pairs, out.Estimate.Pairs > budget
}

// readJoinBody buffers and decodes a join request body, answering the
// HTTP error itself on failure. raw is what the incumbent arm is sent:
// the client's own bytes.
func (g *Gateway) readJoinBody(w http.ResponseWriter, r *http.Request) (req api.TwoJoinRequest, raw []byte, ok bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.maxBody))
	if err != nil {
		api.Error(w, http.StatusBadRequest, "reading request body: %v", err)
		return req, nil, false
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		api.Error(w, http.StatusBadRequest, "parsing request: %v", err)
		return req, nil, false
	}
	return req, raw, true
}

// handleSelfJoin and handleJoin are the experiment-aware proxy paths.
func (g *Gateway) handleSelfJoin(w http.ResponseWriter, r *http.Request) {
	g.proxyJoin(w, r, "selfjoin", r.PathValue("name"))
}

func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	g.proxyJoin(w, r, "join", "")
}

// proxyJoin is the full admission + experiment pipeline for join
// queries: authenticate, rate-limit, price against the tenant budget,
// fair-queue, route to an arm, proxy, and shadow if assigned.
func (g *Gateway) proxyJoin(w http.ResponseWriter, r *http.Request, kind, dataset string) {
	rt, ok := g.authenticate(w, r)
	if !ok {
		return
	}
	req, body, ok := g.readJoinBody(w, r)
	if !ok {
		return
	}
	if kind == "join" {
		dataset = req.A
	}
	if !g.admitRate(w, rt, kind, dataset) {
		return
	}

	// Estimate-priced shedding: self-joins only — the backend estimate
	// endpoint predicts self-join sizes. A request already over budget
	// never occupies a queue slot.
	if budget := rt.maxPairs.Load(); budget > 0 && kind == "selfjoin" && req.Eps > 0 {
		if est, over := g.price(r, dataset, req.Eps, req.Metric, budget); over {
			g.shedResponse(w, rt, kind, dataset, "estimate", time.Second,
				fmt.Sprintf("estimated result size %d exceeds tenant %q max_pairs budget %d; narrow eps", est, rt.name, budget),
				&api.OverBudget{EstimatedPairs: est, MaxPairs: budget})
			return
		}
	}

	release, ok := g.admitQueue(w, r, rt, kind, dataset)
	if !ok {
		return
	}
	defer release()

	d := g.route(rt.name, dataset, r.Header.Get(StickyHeader))
	arm := armIncumbent
	// The candidate arm is sent the decoded request re-encoded with the
	// rule's overrides, so fields api.TwoJoinRequest does not have do not
	// reach it.
	var candBody []byte
	if d.exp != "" && d.candidate {
		applyOverride(&req.JoinParams, d.override)
		var err error
		if candBody, err = json.Marshal(req); err != nil {
			api.Error(w, http.StatusInternalServerError, "re-encoding request body: %v", err)
			return
		}
		if !d.shadow {
			body, arm = candBody, armCandidate
		}
	}
	if sp := trace.FromContext(r.Context()); sp != nil && d.exp != "" {
		sp.SetAttr("experiment", d.exp)
		sp.SetAttr("arm", arm)
	}

	url := g.backend + r.URL.Path
	if req.Stream {
		// Streamed answers flow through; shadow diffing needs a parsed
		// result, so streams only get per-arm latency accounting.
		latency, _ := g.proxyPost(w, r, url, body, true)
		g.observeArm(d.exp, arm, latency)
		return
	}
	latency, resp := g.proxyPost(w, r, url, body, false)
	g.observeArm(d.exp, arm, latency)
	if d.shadow && candBody != nil && resp != nil && resp.status == http.StatusOK {
		if inc, err := parseArmResult(resp.body, latency); err == nil {
			g.differ.shadow(d.exp, url, candBody, rt.name, dataset, kind, inc)
		}
	}
}

// observeArm charges one proxied join to the experiment arm families
// ("none"/incumbent when no rule matched, so totals stay comparable).
func (g *Gateway) observeArm(exp, arm string, latency time.Duration) {
	if exp == "" {
		exp = "none"
	}
	g.m.armRequests.With(exp, arm).Inc()
	g.m.armLatency.With(exp, arm).Observe(latency.Seconds())
}

// bufferedResponse is a non-streamed backend answer the gateway relayed
// and kept for shadow diffing.
type bufferedResponse struct {
	status int
	body   []byte
}

// proxyPost forwards a buffered-body POST to the backend. In stream
// mode the response is copied through with flushes and not retained;
// otherwise it is buffered (bounded), relayed, and returned for
// inspection. The returned latency covers the backend call only — queue
// wait is accounted separately.
func (g *Gateway) proxyPost(w http.ResponseWriter, r *http.Request, url string, body []byte, stream bool) (time.Duration, *bufferedResponse) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		api.Error(w, http.StatusInternalServerError, "building backend request: %v", err)
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := g.rc.DoStream(r.Context(), req)
	if err != nil {
		api.Error(w, http.StatusBadGateway, "backend unreachable: %v", err)
		return time.Since(start), nil
	}
	defer resp.Body.Close()
	if stream {
		relayHeaders(w, resp)
		w.WriteHeader(resp.StatusCode)
		flushCopy(w, resp.Body)
		return time.Since(start), nil
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, g.maxBody*64))
	latency := time.Since(start)
	if err != nil {
		api.Error(w, http.StatusBadGateway, "reading backend response: %v", err)
		return latency, nil
	}
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
	return latency, &bufferedResponse{status: resp.StatusCode, body: respBody}
}

// relayHeaders copies the response headers a client contract depends
// on.
func relayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", "Content-Length"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// flushCopy streams src to w, flushing after every read so NDJSON lines
// reach the client as the backend emits them.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// proxyQuery proxies the queries whose bodies pass through untouched,
// authenticated and rate-limited. Range and KNN are never priced or
// experiment-routed — point queries are cheap and engine-independent —
// but wait their turn in the fair queue. A watch (held) is streamed and
// exempt from the queue: it is a long-lived subscription, not a unit of
// query work, and would pin a slot forever.
func (g *Gateway) proxyQuery(kind string, held bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt, ok := g.authenticate(w, r)
		if !ok {
			return
		}
		name := r.PathValue("name")
		if !g.admitRate(w, rt, kind, name) {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.maxBody))
		if err != nil {
			api.Error(w, http.StatusBadRequest, "reading request body: %v", err)
			return
		}
		if !held {
			release, ok := g.admitQueue(w, r, rt, kind, name)
			if !ok {
				return
			}
			defer release()
		}
		g.proxyPost(w, r, g.backend+r.URL.Path, body, held)
	}
}

// proxyLight forwards the body-less dataset routes (list, metadata,
// explain, delete) with the retrying client.
func (g *Gateway) proxyLight(w http.ResponseWriter, r *http.Request) {
	g.forward(w, r, nil, g.rc.Do)
}

// proxyUpload streams mutation bodies (PUT dataset, append points)
// straight through to the backend — no buffering, no retries — so
// uploads are bounded by the backend's -max-body-bytes, not the
// gateway's query-body cap.
func (g *Gateway) proxyUpload(w http.ResponseWriter, r *http.Request) {
	g.forward(w, r, r.Body, g.rc.DoStream)
}

// forward relays a dataset route's request as it came — method, path,
// query and, when non-nil, body — through send, behind auth + rate
// limit, and copies the backend's answer back.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, body io.Reader, send func(context.Context, *http.Request) (*http.Response, error)) {
	rt, ok := g.authenticate(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if !g.admitRate(w, rt, strings.ToLower(r.Method), name) {
		return
	}
	url := g.backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(r.Method, url, body)
	if err != nil {
		api.Error(w, http.StatusInternalServerError, "building backend request: %v", err)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		req.ContentLength = r.ContentLength
	}
	resp, err := send(r.Context(), req)
	if err != nil {
		api.Error(w, http.StatusBadGateway, "backend unreachable: %v", err)
		return
	}
	defer resp.Body.Close()
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, g.maxBody*64))
}

// handleHealthz reports the gateway as live plus its backend's health:
// "ok" only when the backend answered 200.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := api.Health{Status: "ok", Build: g.build}
	out.GatewayHealth = &api.GatewayHealth{Mode: "gateway", Tenants: g.tenantCount(), Reloads: g.Reloads()}
	out.Backends = api.Probe(r.Context(), g.rc.Get, []string{g.backend})
	if !out.Backends[0].OK {
		out.Status = "degraded"
	}
	api.WriteJSON(w, out)
}
