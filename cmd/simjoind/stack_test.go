package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"simjoin/internal/cluster"
	"simjoin/internal/gateway"
	"simjoin/internal/rclient"
	"simjoin/internal/store"
)

// spec is what a served test sets on the in-process stack it boots: one
// bare worker, or workers behind a coordinator, optionally behind a
// gateway. Every tier is the real simjoind handler on a loopback port.
type spec struct {
	// workers is how many workers the coordinator shards over; 0 boots
	// one bare worker and no coordinator.
	workers int
	// store, when non-nil, makes every worker durable, as -data does: each
	// opens its own directory with these options, so Kill then Restart
	// recovers it from its WAL.
	store *store.Options
	// margin is the coordinator's replication margin (-margin).
	margin float64
	// maxPairs is the admission budget (-max-pairs) of the top simjoind
	// tier: the coordinator, or the bare worker. Shard workers run
	// unbudgeted, so their sub-queries always run.
	maxPairs int64
	// gateway, when non-nil, fronts the stack with a gateway serving this
	// tenant config.
	gateway *gateway.Config
	// tune sets, before a worker serves, what its flags or a test set on
	// a real one: -debug, -max-body-bytes, its logger, a held index build.
	tune func(*server)
	// wrap, when non-nil, wraps every worker's handler, to see what the
	// coordinator sends it.
	wrap func(http.Handler) http.Handler
}

// testStack is a booted spec: the front tier's URL, each tier's URL and
// the objects tests reach into. Everything closes when the test ends.
type testStack struct {
	t    *testing.T
	spec spec
	// URL is the front tier: the gateway, else the coordinator, else the
	// worker.
	URL string
	// workers are the worker URLs by shard; srv, ts and dirs hold each
	// worker's server, its listener and its data directory (durable only).
	workers []string
	srv     []*server
	ts      []*httptest.Server
	dirs    []string
	// coord and gw are nil when the spec boots no such tier.
	coord    *coordServer
	coordURL string
	gw       *gateway.Gateway
	gwURL    string
}

// fastClient is the retrying client of every coordinator and gateway a
// test boots: backoffs of milliseconds, so a dead worker fails fast. Each
// tier gets its own: the retry counter it exports is per client.
func fastClient() *rclient.Client {
	return &rclient.Client{
		MaxRetries:     2,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       10 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
		RetryPOST:      true,
	}
}

// stack boots sp and closes it when t ends.
func stack(t *testing.T, sp spec) *testStack {
	t.Helper()
	n := max(sp.workers, 1)
	st := &testStack{t: t, spec: sp, workers: make([]string, n),
		srv: make([]*server, n), ts: make([]*httptest.Server, n), dirs: make([]string, n)}
	for i := range st.workers {
		if sp.store != nil {
			st.dirs[i] = t.TempDir()
		}
		st.start(i, "127.0.0.1:0")
		st.workers[i] = st.ts[i].URL
	}
	st.URL = st.workers[0]
	if sp.workers > 0 {
		st.coord = newCoordServer(cluster.New(st.workers, sp.margin, fastClient()))
		st.coord.maxPairs = sp.maxPairs
		st.coordURL = st.serve(st.coord.handler())
		st.URL = st.coordURL
	}
	if sp.gateway != nil {
		g, err := gateway.New(gateway.Options{Backend: st.URL, Client: fastClient()})
		if err != nil {
			t.Fatalf("gateway.New: %v", err)
		}
		if err := g.SetConfig(sp.gateway); err != nil {
			t.Fatalf("SetConfig: %v", err)
		}
		st.gw, st.gwURL = g, st.serve(g.Handler())
		st.URL = st.gwURL
	}
	return st
}

func (st *testStack) serve(h http.Handler) string {
	ts := httptest.NewServer(h)
	st.t.Cleanup(ts.Close)
	return ts.URL
}

// start boots worker i on addr, recovering it from its directory when the
// stack is durable.
func (st *testStack) start(i int, addr string) {
	st.t.Helper()
	srv := newServer()
	if st.spec.workers == 0 {
		srv.maxPairs = st.spec.maxPairs
	}
	if st.spec.tune != nil {
		st.spec.tune(srv)
	}
	if st.spec.store != nil {
		opt := *st.spec.store
		opt.Hooks = storeHooks(srv.m)
		cat, err := store.Open(st.dirs[i], opt)
		if err != nil {
			st.t.Fatalf("store.Open(%s): %v", st.dirs[i], err)
		}
		srv.attachStore(cat)
	}
	h := srv.handler()
	if st.spec.wrap != nil {
		h = st.spec.wrap(h)
	}
	var l net.Listener
	var err error
	for try := 0; ; try++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		// A killed worker's port can linger briefly.
		if try > 200 {
			st.t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: h}}
	ts.Start()
	st.t.Cleanup(ts.Close)
	st.srv[i], st.ts[i] = srv, ts
}

// Kill severs worker i's open connections and stops its listener without
// closing its store: a crash, as far as its data is concerned.
func (st *testStack) Kill(i int) {
	st.ts[i].CloseClientConnections()
	st.ts[i].Close()
}

// Restart boots worker i again on its old address: recovered from its
// WAL when durable, empty otherwise.
func (st *testStack) Restart(i int) {
	st.start(i, st.ts[i].Listener.Addr().String())
}

// quick is the client of the tests' own requests: one that a handler
// stuck on a lock fails instead of hanging.
var quick = &http.Client{Timeout: 10 * time.Second}

// doJSON sends one request with quick and returns the response, its body
// the answer read whole. body goes as is when it is a []byte and
// JSON-encoded otherwise; hdr holds header name/value pairs. want, when
// not 0, is the status the request must answer, and the test reads that
// answer itself, into its api type; else doJSON decodes the answer as a
// JSON object for ad-hoc checks (nil when it is not one).
func doJSON(t *testing.T, method, url string, body any, want int, hdr ...string) (*http.Response, map[string]any) {
	t.Helper()
	raw, ok := body.([]byte)
	if !ok && body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
		hdr = append([]string{"Content-Type", "application/json"}, hdr...)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := quick.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(answer))
	var out map[string]any
	if want == 0 {
		_ = json.NewDecoder(bytes.NewReader(answer)).Decode(&out)
	} else if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, answer)
	}
	return resp, out
}

// joinPairs posts one join, which must answer 200, and returns its pair
// set sorted, with the rest of its answer: the summary line of a streamed
// join ("stream": true, answered as NDJSON: pair lines, then one summary
// object), or the JSON answer of a collected one.
func joinPairs(t *testing.T, url string, body map[string]any) (pairs [][2]int, summary map[string]any) {
	t.Helper()
	resp, _ := doJSON(t, http.MethodPost, url, body, http.StatusOK)
	pairs = [][2]int{}
	if body["stream"] != true {
		_ = json.NewDecoder(resp.Body).Decode(&summary)
		raw, ok := summary["pairs"].([]any)
		if !ok {
			t.Fatalf("no pairs in %v", summary)
		}
		for _, p := range raw {
			pp := p.([]any)
			pairs = append(pairs, [2]int{int(pp[0].(float64)), int(pp[1].(float64))})
		}
	} else {
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type = %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if summary != nil {
				t.Fatalf("line after summary: %s", line)
			}
			if line[0] == '[' {
				var p [2]int
				if err := json.Unmarshal(line, &p); err != nil {
					t.Fatalf("bad pair line %q: %v", line, err)
				}
				pairs = append(pairs, p)
				continue
			}
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatalf("bad summary line %q: %v", line, err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if summary == nil {
			t.Fatal("stream ended without a summary line")
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		return pairs[a][0] < pairs[b][0] || (pairs[a][0] == pairs[b][0] && pairs[a][1] < pairs[b][1])
	})
	return pairs, summary
}

// getText fetches url, which must answer 200, and returns its body. A
// /metrics answer must also say it is Prometheus text 0.0.4.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, _ := doJSON(t, http.MethodGet, url, nil, http.StatusOK)
	if ct := resp.Header.Get("Content-Type"); strings.HasSuffix(url, "/metrics") && !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	return string(text)
}
