package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"simjoin/internal/store"
)

// watchStream is a test client for the NDJSON watch endpoint: a reader
// goroutine parses the stream into a channel so tests can consume
// events with timeouts instead of blocking reads.
type watchStream struct {
	t    *testing.T
	resp *http.Response
	ch   chan watchStreamEvent
}

type watchStreamEvent struct {
	pair *[2]int
	obj  map[string]any
	err  error
}

// openWatch posts a watch request and fails the test unless the stream
// opens. wantStatus != 0 instead asserts a non-200 rejection and
// returns nil.
func openWatch(t *testing.T, base, name string, body map[string]any, wantStatus int) *watchStream {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/datasets/"+name+"/watch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if wantStatus != 0 {
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("watch %s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		t.Fatalf("watch %s: status %d: %s", name, resp.StatusCode, msg)
	}
	ws := &watchStream{t: t, resp: resp, ch: make(chan watchStreamEvent, 1<<15)}
	t.Cleanup(ws.close)
	go ws.readLoop()
	return ws
}

// close severs the stream client-side. Tests must close streams before
// their httptest server: Close waits for active connections, and a
// standing query holds its connection open by design.
func (ws *watchStream) close() { ws.resp.Body.Close() }

func (ws *watchStream) readLoop() {
	dec := json.NewDecoder(ws.resp.Body)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			ws.ch <- watchStreamEvent{err: err}
			return
		}
		if len(raw) > 0 && raw[0] == '[' {
			var p [2]int
			if err := json.Unmarshal(raw, &p); err != nil {
				ws.ch <- watchStreamEvent{err: err}
				return
			}
			ws.ch <- watchStreamEvent{pair: &p}
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			ws.ch <- watchStreamEvent{err: err}
			return
		}
		ws.ch <- watchStreamEvent{obj: m}
	}
}

func (ws *watchStream) next() watchStreamEvent {
	ws.t.Helper()
	select {
	case ev := <-ws.ch:
		return ev
	case <-time.After(15 * time.Second):
		ws.t.Fatal("timed out waiting for a watch event")
		return watchStreamEvent{}
	}
}

// hello reads the stream's opening event and returns it.
func (ws *watchStream) hello() map[string]any {
	ws.t.Helper()
	ev := ws.next()
	if ev.err != nil || ev.obj == nil || ev.obj["event"] != "hello" {
		ws.t.Fatalf("first watch event = %+v, want hello", ev)
	}
	return ev.obj
}

// collectUntil accumulates pair lines into got until a batch marker
// satisfies stop; it returns that marker.
func (ws *watchStream) collectUntil(got map[[2]int]int, stop func(batch map[string]any) bool) map[string]any {
	ws.t.Helper()
	for {
		ev := ws.next()
		switch {
		case ev.err != nil:
			ws.t.Fatalf("watch stream broke: %v", ev.err)
		case ev.pair != nil:
			got[*ev.pair]++
		case ev.obj["event"] == "batch":
			if stop(ev.obj) {
				return ev.obj
			}
		case ev.obj["event"] == "end":
			ws.t.Fatalf("watch ended early: %v", ev.obj)
		}
	}
}

// collectUntilSeq collects pairs until the batch cursor reaches seq.
func (ws *watchStream) collectUntilSeq(got map[[2]int]int, seq int) {
	ws.t.Helper()
	ws.collectUntil(got, func(b map[string]any) bool {
		n, _ := b["seq"].(float64)
		return int(n) >= seq
	})
}

// waitEnd reads (discarding pairs) until the terminal event and returns
// its reason.
func (ws *watchStream) waitEnd() string {
	ws.t.Helper()
	for {
		ev := ws.next()
		if ev.err != nil {
			ws.t.Fatalf("watch stream broke before end event: %v", ev.err)
		}
		if ev.obj != nil && ev.obj["event"] == "end" {
			reason, _ := ev.obj["reason"].(string)
			return reason
		}
	}
}

// livePoints makes clustered points so small eps values still produce
// pairs.
func livePoints(n, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 6)
	for i := range centers {
		c := make([]float64, dims)
		for d := range c {
			c[d] = rng.Float64()
		}
		centers[i] = c
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make([]float64, dims)
		for d := range p {
			p[d] = c[d] + (rng.Float64()-0.5)*0.2
		}
		pts[i] = p
	}
	return pts
}

func liveL2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// oraclePairs is the brute-force self-join pair set.
func oraclePairs(pts [][]float64, eps float64) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if liveL2(pts[i], pts[j]) <= eps {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

// oracleCross is the brute-force two-set pair set (a-index, b-index).
func oracleCross(a, b [][]float64, eps float64) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for i := range a {
		for j := range b {
			if liveL2(a[i], b[j]) <= eps {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

// checkPairSet asserts got's key set equals want. dupOK allows
// at-least-once delivery; otherwise any pair seen twice fails.
func checkPairSet(t *testing.T, got map[[2]int]int, want map[[2]int]bool, dupOK bool) {
	t.Helper()
	for p := range want {
		if got[p] == 0 {
			t.Fatalf("pair %v never delivered (got %d of %d)", p, len(got), len(want))
		}
	}
	for p, n := range got {
		if !want[p] {
			t.Fatalf("pair %v delivered but not in the oracle set", p)
		}
		if !dupOK && n > 1 {
			t.Fatalf("pair %v delivered %d times", p, n)
		}
	}
}

func appendPointsHTTP(t *testing.T, base, name string, pts [][]float64) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/datasets/"+name+"/points", map[string]any{"points": pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append %s: %d %v", name, resp.StatusCode, body)
	}
}

// TestWatchSelfJoinLive is the worker-mode acceptance path: a standing
// self-join registered before any append receives, batch by batch,
// exactly the pairs each append creates.
func TestWatchSelfJoinLive(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	const eps = 0.15
	pts := livePoints(100, 4, 1)
	putPoints(t, ts.URL, "d", pts)

	ws := openWatch(t, ts.URL, "d", map[string]any{"eps": eps}, 0)
	defer ws.close()
	hello := ws.hello()
	if seq, _ := hello["seq"].(float64); int(seq) != 100 {
		t.Fatalf("hello seq = %v, want 100", hello["seq"])
	}

	got := make(map[[2]int]int)
	for len(pts) < 160 {
		batch := livePoints(30, 4, int64(len(pts)))
		pts = append(pts, batch...)
		appendPointsHTTP(t, ts.URL, "d", batch)
		ws.collectUntilSeq(got, len(pts))
	}
	base := oraclePairs(pts[:100], eps)
	want := make(map[[2]int]bool)
	for p := range oraclePairs(pts, eps) {
		if !base[p] {
			want[p] = true
		}
	}
	checkPairSet(t, got, want, false)

	// GET /datasets/{name} reflects the grown dataset and the watcher.
	resp, meta := doJSON(t, http.MethodGet, ts.URL+"/datasets/d", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dataset: %d %v", resp.StatusCode, meta)
	}
	if n, _ := meta["len"].(float64); int(n) != len(pts) {
		t.Fatalf("metadata len = %v, want %d", meta["len"], len(pts))
	}
	live, _ := meta["live"].(map[string]any)
	if subs, _ := live["subscriptions"].(float64); int(subs) != 1 {
		t.Fatalf("metadata live = %v, want 1 subscription", meta["live"])
	}

	// The engine applied each batch after its append answered, as a
	// live.append root span continuing the append's trace (the GET above
	// applied the queue, so every such span has ended): stitched, it
	// hangs under the append's server span beside the acknowledgement
	// path's own children.
	td, ok := traceWithRoot(getTraces(t, ts.URL), "live.append")
	if !ok {
		t.Fatal("no live.append trace retained")
	}
	apply, _ := td.Root()
	tv, body := getTraceView(t, ts.URL, td.TraceID)
	assertOneTree(t, "worker", tv, "POST /datasets/{name}/points")
	server, _ := tv.Root()
	if apply.ParentID != server.SpanID {
		t.Fatalf("live.append parent %s, want the append's server span %s:\n%s", apply.ParentID, server.SpanID, body)
	}
	var kids []string
	for _, sp := range tv.ChildrenOf(server.SpanID) {
		kids = append(kids, sp.Name)
	}
	if got := strings.Join(kids, ","); got != "upload.decode,dataset.adopt,live.append" {
		t.Fatalf("append server span children %s, want upload.decode,dataset.adopt,live.append", got)
	}
	if !strings.Contains(getBody(t, ts.URL+"/metrics"), "\nsimjoind_live_backlog 0\n") {
		t.Fatal("/metrics lacks simjoind_live_backlog 0 once the queue is applied")
	}

	// DELETE terminates the stream with a terminal event, not a hangup.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/d", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if reason := ws.waitEnd(); reason != "dataset deleted" {
		t.Fatalf("end reason = %q, want %q", reason, "dataset deleted")
	}
}

// TestWatchTwoSetLive registers a standing two-set join and appends to
// both sides: the union of delivered pairs must be every cross pair
// involving at least one appended point.
func TestWatchTwoSetLive(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	const eps = 0.18
	a := livePoints(50, 3, 10)
	b := livePoints(50, 3, 11)
	putPoints(t, ts.URL, "a", a)
	putPoints(t, ts.URL, "b", b)

	ws := openWatch(t, ts.URL, "a", map[string]any{"eps": eps, "other": "b"}, 0)
	defer ws.close()
	hello := ws.hello()
	if so, _ := hello["seq_other"].(float64); int(so) != 50 {
		t.Fatalf("hello seq_other = %v, want 50", hello["seq_other"])
	}

	baseCross := oracleCross(a, b, eps)
	got := make(map[[2]int]int)
	aAdd := livePoints(25, 3, 12)
	a = append(a, aAdd...)
	appendPointsHTTP(t, ts.URL, "a", aAdd)
	ws.collectUntil(got, func(bt map[string]any) bool {
		n, _ := bt["seq"].(float64)
		return int(n) >= 75
	})
	bAdd := livePoints(25, 3, 13)
	b = append(b, bAdd...)
	appendPointsHTTP(t, ts.URL, "b", bAdd)
	ws.collectUntil(got, func(bt map[string]any) bool {
		n, _ := bt["seq_other"].(float64)
		return int(n) >= 75
	})

	want := make(map[[2]int]bool)
	for p := range oracleCross(a, b, eps) {
		if !baseCross[p] {
			want[p] = true
		}
	}
	checkPairSet(t, got, want, false)
}

// TestWatchCatchUpAcrossRestart is the durability acceptance test: a
// watcher's cursor survives a hard worker kill because catch-up replays
// from the WAL-recovered dataset. The union of everything both watch
// sessions delivered must equal the oracle over the final dataset.
func TestWatchCatchUpAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const eps = 0.15
	ts, _ := newPersistentServer(t, dir, store.Options{Sync: store.SyncAlways})
	pts := livePoints(80, 4, 20)
	putPoints(t, ts.URL, "d", pts)

	// Full replay from the start, then one live batch.
	ws := openWatch(t, ts.URL, "d", map[string]any{"eps": eps, "after": 0}, 0)
	ws.hello()
	got := make(map[[2]int]int)
	ws.collectUntilSeq(got, 80)
	batch := livePoints(40, 4, 21)
	pts = append(pts, batch...)
	appendPointsHTTP(t, ts.URL, "d", batch)
	ws.collectUntilSeq(got, 120)
	lastSeq := 120

	// Hard kill: sever every connection (the watch stream dies without
	// a terminal event) and abandon the catalog mid-flight.
	ts.CloseClientConnections()
	ts.Close()

	// Recover, append while nobody is watching, then resume from the
	// acknowledged cursor: catch-up must cover the missed batch.
	ts2, _ := newPersistentServer(t, dir, store.Options{Sync: store.SyncAlways})
	missed := livePoints(40, 4, 22)
	pts = append(pts, missed...)
	appendPointsHTTP(t, ts2.URL, "d", missed)

	ws2 := openWatch(t, ts2.URL, "d", map[string]any{"eps": eps, "after": lastSeq}, 0)
	ws2.hello()
	ws2.collectUntilSeq(got, 160)

	// And one more live batch on the recovered worker.
	tail := livePoints(20, 4, 23)
	pts = append(pts, tail...)
	appendPointsHTTP(t, ts2.URL, "d", tail)
	ws2.collectUntilSeq(got, 180)

	checkPairSet(t, got, oraclePairs(pts, eps), true)

	// The recovered worker reports its WAL footprint in the metadata.
	resp, meta := doJSON(t, http.MethodGet, ts2.URL+"/datasets/d", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dataset: %d %v", resp.StatusCode, meta)
	}
	if wb, _ := meta["wal_bytes"].(float64); wb <= 0 {
		t.Fatalf("metadata wal_bytes = %v, want > 0", meta["wal_bytes"])
	}
}

// TestWatchReplaceAndValidation covers the PUT-replace terminal event
// and the watch endpoint's rejection paths.
func TestWatchReplaceAndValidation(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	putPoints(t, ts.URL, "d", livePoints(30, 3, 30))

	ws := openWatch(t, ts.URL, "d", map[string]any{"eps": 0.1}, 0)
	defer ws.close()
	ws.hello()
	putPoints(t, ts.URL, "d", livePoints(30, 3, 31))
	if reason := ws.waitEnd(); reason != "dataset replaced" {
		t.Fatalf("end reason = %q, want %q", reason, "dataset replaced")
	}

	openWatch(t, ts.URL, "missing", map[string]any{"eps": 0.1}, http.StatusNotFound)
	openWatch(t, ts.URL, "d", map[string]any{"eps": 0.0}, http.StatusBadRequest)
	openWatch(t, ts.URL, "d", map[string]any{"eps": 0.1, "metric": "cosine"}, http.StatusBadRequest)
	openWatch(t, ts.URL, "d", map[string]any{"eps": 0.1, "after": 999}, http.StatusBadRequest)
	openWatch(t, ts.URL, "d", map[string]any{"eps": 0.1, "other": "missing"}, http.StatusNotFound)
}

// TestWatchMetricOrdering sanity-checks that delivered pairs are sorted
// i < j and batch markers carry the running cursor.
func TestWatchPairsAreOrdered(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	putPoints(t, ts.URL, "d", livePoints(60, 3, 40))
	ws := openWatch(t, ts.URL, "d", map[string]any{"eps": 0.2, "after": 0}, 0)
	defer ws.close()
	ws.hello()
	got := make(map[[2]int]int)
	ws.collectUntilSeq(got, 60)
	pairs := make([][2]int, 0, len(got))
	for p := range got {
		if p[0] >= p[1] {
			t.Fatalf("pair %v is not i < j", p)
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	if len(pairs) == 0 {
		t.Fatal("replay delivered no pairs")
	}
}
