package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simjoin"
)

// ingestSpec sizes serve_ingest. Frozen: see README.md, "Sizes".
type ingestSpec struct {
	dims, n0     int // the dataset uploaded in set-up
	batch        int // points per append, the primary op
	maxBatches   int // inputs are generated for this many appends
	eps          float64
	radius       float64 // the side op's range queries
	pool         int     // distinct query points
	readEvery    int     // the side connection sends one query per readEvery acknowledged appends
	compactBytes int     // WAL size that triggers a compaction
}

var serveIngestSpec = ingestSpec{dims: 8, n0: 20000, batch: 32, maxBatches: 3000, eps: 0.05, radius: 0.1, pool: 128, readEvery: 4, compactBytes: 512 << 10}

// rangeOp is one prepared range query with every neighbour it can ever
// have: its neighbours among the base points and all points the schedule
// will append, in rising index order. The answer at any moment is a
// prefix of that list.
type rangeOp struct {
	body []byte
	full []int
}

type ingestWorkload struct {
	spec     ingestSpec
	base     [][]float64
	appended [][]float64 // batch k is appended[k*batch : (k+1)*batch]
	ranges   []rangeOp
	t        *tally
}

// ingestTarget is one copy of the dataset being appended to through one
// entry point, with the standing query that watches it.
type ingestTarget struct {
	*stack
	worker *proc
	gw     *proc  // nil when the entry point is the worker itself
	url    string // where appends, queries and the watch go
	watch  *watcher

	sent   []time.Time  // when batch k's request left; the appending goroutine's
	issued atomic.Int64 // batches sent
	acked  atomic.Int64 // batches acknowledged
}

func runServeIngest(cfg runConfig, _ string) (*outcome, error) {
	spec := serveIngestSpec
	if cfg.smoke {
		spec.n0, spec.maxBatches, spec.pool = spec.n0/16, 400, 16
	}
	w := &ingestWorkload{spec: spec, t: &tally{}}
	r := rand.New(rand.NewSource(cfg.seed))
	out := &outcome{values: map[string]float64{}}

	var setups, rss []float64
	var phases []phase
	// Every slice replays one schedule from one starting state, so that
	// append k is the same work in each: the slices are its repeats.
	w.generate(r)
	reps, slice := cfg.slices()
	for i := 0; i < reps; i++ {
		start := time.Now()
		tg, err := w.setUp(cfg, true, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		w.drive(runConfig{}, tg, cfg.duration(0.02), 0) // discarded warm-up
		tiers := []*proc{tg.gw, tg.worker}
		before := scrapeAll(tiers)
		measuredFrom := tg.acked.Load()
		ph := w.drive(cfg, tg, slice, 0)
		phases = append(phases, ph)
		rss = append(rss, tg.peakRSS())
		if cfg.trace {
			w.scraped(out.values, before, scrapeAll(tiers), float64(len(ph.prim)))
		}
		if err := w.audit(tg, out.values, measuredFrom); err != nil {
			return nil, err
		}
		tg.close()
	}
	out.values["setup_s"] = lowest(setups)
	if !cfg.trace {
		out.endToEnd(phases, rss)
	} else {
		out.traceDiag(phases[0])
		if err := w.ladder(cfg, out.values); err != nil {
			return nil, err
		}
	}
	out.attempted, out.failed = w.t.counts()
	out.notes = w.t.notes
	return out, nil
}

// generate draws the next base dataset, append schedule and query pool.
func (w *ingestWorkload) generate(r *rand.Rand) {
	b := newBlobs(r, w.spec.dims)
	w.ranges = nil
	w.base = b.points(r, w.spec.n0)
	w.appended = b.points(r, w.spec.maxBatches*w.spec.batch)
	all := append(append([][]float64(nil), w.base...), w.appended...)
	for _, q := range b.points(r, w.spec.pool) {
		w.ranges = append(w.ranges, rangeOp{mustJSON(pointQuery{Point: q, Radius: w.spec.radius}), bruteRange(all, q, w.spec.radius)})
	}
}

// length is the dataset's length once batches appends are acknowledged.
func (w *ingestWorkload) length(batches int64) int { return w.spec.n0 + int(batches)*w.spec.batch }

// setUp boots a worker — durable or in-memory, behind a gateway or bare —
// uploads the base points through the entry point, opens the standing
// query and runs one op of each kind.
func (w *ingestWorkload) setUp(cfg runConfig, durable, gateway bool) (*ingestTarget, error) {
	s, err := newStack(cfg)
	if err != nil {
		return nil, err
	}
	tg := &ingestTarget{stack: s, sent: make([]time.Time, w.spec.maxBatches)}
	var args []string
	if durable {
		args = []string{"-data", filepath.Join(s.dir, "data"), "-fsync", "always", "-compact-bytes", fmt.Sprint(w.spec.compactBytes)}
	}
	if tg.worker, err = s.start("worker", args...); err != nil {
		return nil, err
	}
	tg.url = tg.worker.url
	if gateway {
		tenants, err := s.writeTenants()
		if err != nil {
			return nil, err
		}
		if tg.gw, err = s.start("gateway", "-gateway", "-backends", tg.worker.url, "-tenants", tenants); err != nil {
			return nil, err
		}
		tg.url = tg.gw.url
	}
	c := newConn()
	defer c.close()
	if err := upload(c, tg.url, w.base); err != nil {
		return nil, err
	}
	if tg.watch, err = openWatch(tg.url, w.spec.eps); err != nil {
		return nil, err
	}
	w.append(c, tg, nil)
	w.rangeQuery(c, tg, 0, nil)
	return tg, nil
}

func (tg *ingestTarget) close() {
	tg.watch.close()
	tg.stop()
}

// drive appends on one connection for d (or, when count is set, count
// batches). A second connection sends one range query per spec.readEvery
// acknowledged appends, so the mix of reads and writes is the same however
// fast either is.
func (w *ingestWorkload) drive(cfg runConfig, tg *ingestTarget, d time.Duration, count int) phase {
	var ph phase
	start := time.Now()
	due := make(chan struct{}, 1) // a read is due; one pending at most
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		i := 0
		for range due {
			ph.sideOp(i, w.rangeQuery(c, tg, i, cfg.recFor(i)))
			i++
		}
	}()
	c := newConn()
	defer c.close()
	for i := 0; (count > 0 && i < count) || (count == 0 && time.Since(start) < d); i++ {
		rec := cfg.recFor(i)
		k := int(tg.issued.Load()) // the batch's place in the schedule
		took, ok := w.append(c, tg, rec)
		if !ok {
			break
		}
		ph.primary(cfg, rec, k, took)
		if i%w.spec.readEvery == 0 {
			select {
			case due <- struct{}{}:
			default: // the reader is still busy with the last one
			}
		}
	}
	close(due)
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// append sends the next batch of the schedule and returns its latency;
// false means the schedule is exhausted.
func (w *ingestWorkload) append(c *conn, tg *ingestTarget, rec *recorder) (time.Duration, bool) {
	k := int(tg.issued.Load())
	if k >= w.spec.maxBatches {
		return 0, false
	}
	body := mustJSON(pointsBody{w.appended[k*w.spec.batch : (k+1)*w.spec.batch]})
	tg.sent[k] = time.Now()
	tg.issued.Add(1)
	data, took, done, err := c.timed(rec, "op/points", k, http.MethodPost, datasetURL(tg.url, "/points"), body)
	defer done()
	var a datasetAnswer
	if err == nil {
		err = json.Unmarshal(data, &a)
	}
	switch {
	case err != nil:
		w.t.fail("append %d: %v", k, err)
	case a.Len != w.length(int64(k)+1):
		w.t.fail("append %d: acknowledged length %d, want %d", k, a.Len, w.length(int64(k)+1))
	default:
		w.t.ok()
	}
	tg.acked.Add(1)
	return took, true
}

// rangeQuery sends the i-th range query of the pool and checks that the
// answer holds every neighbour acknowledged before the query left and
// none that had not been sent when the answer came back.
func (w *ingestWorkload) rangeQuery(c *conn, tg *ingestTarget, i int, rec *recorder) time.Duration {
	q := w.ranges[i%len(w.ranges)]
	op := -1 - i // the side connection's ops count downwards
	atLeast := w.length(tg.acked.Load())
	data, took, done, err := c.timed(rec, "op/range", op, http.MethodPost, datasetURL(tg.url, "/range"), q.body)
	defer done()
	atMost := w.length(tg.issued.Load())
	var a rangeAnswer
	if err == nil {
		err = json.Unmarshal(data, &a)
	}
	got := a.Indexes
	sort.Ints(got)
	switch {
	case err != nil:
		w.t.fail("range query %d: %v", i, err)
	case len(got) > len(q.full) || !equalInts(got, q.full[:len(got)]):
		w.t.fail("range query %d: answer %v is no prefix of %v", i, got, q.full)
	case len(got) > 0 && got[len(got)-1] >= atMost:
		w.t.fail("range query %d: answer holds point %d, but only %d were sent", i, got[len(got)-1], atMost)
	case len(got) < len(q.full) && q.full[len(got)] < atLeast:
		w.t.fail("range query %d: answer lacks point %d, acknowledged before the query", i, q.full[len(got)])
	default:
		w.t.ok()
	}
	return took
}

// audit holds the run to its promises: the dataset is as long as the
// acknowledged appends make it; the standing query delivered every new
// pair exactly once; and a worker killed outright recovers every
// acknowledged point from its -data directory.
func (w *ingestWorkload) audit(tg *ingestTarget, v map[string]float64, lagFrom int64) error {
	acked := tg.acked.Load()
	final := w.length(acked)
	c := newConn()
	defer c.close()
	if n, err := datasetLen(c, tg.url); err != nil || n != final {
		w.t.fail("final length %d (%v), want %d", n, err, final)
	} else {
		w.t.ok()
	}

	// Expected delta: the pairs of the final dataset with a point at or
	// past the base length.
	var want pairSum
	all := append(append([][]float64(nil), w.base...), w.appended[:int(acked)*w.spec.batch]...)
	if _, err := simjoin.SelfJoinEach(simjoin.FromPoints(all), simjoin.Options{Eps: w.spec.eps}, func(i, j int) {
		if j >= w.spec.n0 {
			want.addSelf(i, j)
		}
	}); err != nil {
		return err
	}
	delivered := tg.watch.waitSeq(final, 10*time.Second)
	got, dups, end := tg.watch.summary()
	switch {
	case !delivered:
		w.t.fail("watch: batch event %d never arrived (stream end: %q)", final, end)
	case dups > 0:
		w.t.fail("watch: %d pairs delivered more than once", dups)
	case got != want:
		w.t.fail("watch: delivered pair set %+v, want %+v", got, want)
	default:
		w.t.ok()
	}
	var lags latencies
	for k := lagFrom; k < acked; k++ {
		if at, ok := tg.watch.arrival(w.length(k + 1)); ok {
			lags.add(at.Sub(tg.sent[k]))
		}
	}
	v["live.event_lag_p50_ms"] = lags.p(50)

	tg.watch.close()
	tg.worker.kill()
	start := time.Now()
	if err := tg.launch(tg.worker); err != nil {
		return err
	}
	v["store.recovery_ms"] = ms(time.Since(start))
	if n, err := datasetLen(c, tg.worker.url); err != nil || n != final {
		w.t.fail("after kill and restart: length %d (%v), want %d", n, err, final)
	} else {
		w.t.ok()
	}
	return nil
}

// scraped derives what the tiers count themselves, between two scrapes
// of gateway and worker that saw appends batches go by.
func (w *ingestWorkload) scraped(v map[string]float64, before, after []map[string]float64, appends float64) {
	const gw, worker = 0, 1
	d := func(name string) float64 { return delta(before[worker], after[worker], name, "") }
	v["gateway.queue_wait_ms"] = meanMS(before[gw], after[gw], "simjoin_gw_queue_wait_seconds")
	v["gateway.shed"] = delta(before[gw], after[gw], "simjoin_gw_shed_total", "")
	v["rclient.retries"] = delta(before[gw], after[gw], "simjoin_gw_rclient_retries_total", "")
	v["store.wal_append_ms"] = meanMS(before[worker], after[worker], "simjoind_store_wal_append_seconds")
	v["store.fsyncs_per_append"] = ratio(d("simjoind_store_fsyncs_total"), appends)
	v["store.wal_bytes_per_user_byte"] = ratio(d("simjoind_store_wal_appended_bytes_total"), appends*float64(w.spec.batch*w.spec.dims*8))
	v["store.compactions"] = d("simjoind_store_compactions_total")
	v["store.compaction_ms"] = meanMS(before[worker], after[worker], "simjoind_store_compaction_seconds")
	v["live.append_ms"] = meanMS(before[worker], after[worker], "simjoind_live_append_seconds")
	v["live.delta_pairs_per_batch"] = ratio(d("simjoind_live_delta_pairs_total"), d("simjoind_live_batches_total"))
	v["live.evictions"] = d("simjoind_live_evictions_total")
}

// ladder replays one append schedule from the same starting state at
// each entry point — an in-memory worker, a durable worker, the gateway in
// front of a durable worker — and differences the medians.
func (w *ingestWorkload) ladder(cfg runConfig, v map[string]float64) error {
	var p50 [3]float64
	count := 0
	for i, tier := range []struct{ durable, gateway bool }{{false, false}, {true, false}, {true, true}} {
		tg, err := w.setUp(cfg, tier.durable, tier.gateway)
		if err != nil {
			return err
		}
		// The first tier runs for its share of the time; the others
		// replay exactly as many batches.
		ph := w.drive(cfg, tg, cfg.duration(0.15), count)
		count = len(ph.prim)
		p50[i] = ph.prim.p(50)
		tg.close()
	}
	v["simjoind.append_inmem_p50_ms"] = p50[0]
	v["store.overhead_ms"] = p50[1] - p50[0]
	v["gateway.append_overhead_ms"] = p50[2] - p50[1]
	return nil
}

// watcher reads one standing query's NDJSON stream: it keeps every pair
// delivered, counts pairs delivered twice, and notes when each batch
// event arrived.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	pairs   map[uint64]struct{}
	sum     pairSum
	dups    int
	arrived map[int]time.Time // batch event seq → when it was read
	lastSeq int
	end     string // why the stream ended, once it has
}

type watchEvent struct {
	Event  string `json:"event"`
	Seq    int    `json:"seq"`
	Reason string `json:"reason"`
}

// openWatch opens a live-only standing self-join at base and returns once
// the hello event is in: from then on every append is watched.
func openWatch(base string, eps float64) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, datasetURL(base, "/watch"), bytes.NewReader(mustJSON(joinQuery{Eps: eps})))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("X-Api-Key", tenantKey)
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	wt := &watcher{cancel: cancel, done: make(chan struct{}), pairs: make(map[uint64]struct{}), arrived: make(map[int]time.Time)}
	wt.cond = sync.NewCond(&wt.mu)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !bytes.Contains(sc.Bytes(), []byte(`"hello"`)) {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: no hello event, got %q", sc.Bytes())
	}
	go func() {
		defer close(wt.done)
		defer resp.Body.Close()
		for sc.Scan() {
			wt.line(sc.Bytes())
		}
		wt.mu.Lock()
		if wt.end == "" {
			wt.end = "stream severed"
		}
		wt.cond.Broadcast()
		wt.mu.Unlock()
	}()
	return wt, nil
}

func (wt *watcher) line(b []byte) {
	now := time.Now()
	wt.mu.Lock()
	defer wt.mu.Unlock()
	if len(b) > 0 && b[0] == '[' {
		var p [2]int
		if json.Unmarshal(b, &p) != nil {
			return
		}
		key := uint64(uint32(p[0]))<<32 | uint64(uint32(p[1]))
		if _, dup := wt.pairs[key]; dup {
			wt.dups++
			return
		}
		wt.pairs[key] = struct{}{}
		wt.sum.addSelf(p[0], p[1])
		return
	}
	var ev watchEvent
	if json.Unmarshal(b, &ev) != nil {
		return
	}
	switch ev.Event {
	case "batch":
		wt.arrived[ev.Seq] = now
		wt.lastSeq = max(wt.lastSeq, ev.Seq)
	case "end":
		wt.end = ev.Reason
	}
	wt.cond.Broadcast()
}

// waitSeq waits until the batch event with sequence token seq has
// arrived, the stream has ended, or the timeout has passed.
func (wt *watcher) waitSeq(seq int, timeout time.Duration) bool {
	timer := time.AfterFunc(timeout, func() {
		wt.mu.Lock()
		wt.cond.Broadcast()
		wt.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	wt.mu.Lock()
	defer wt.mu.Unlock()
	for wt.lastSeq < seq && wt.end == "" && time.Now().Before(deadline) {
		wt.cond.Wait()
	}
	return wt.lastSeq >= seq
}

func (wt *watcher) summary() (sum pairSum, dups int, end string) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	return wt.sum, wt.dups, wt.end
}

func (wt *watcher) arrival(seq int) (time.Time, bool) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	at, ok := wt.arrived[seq]
	return at, ok
}

// close hangs up and waits for the reader to finish. Safe to call twice.
func (wt *watcher) close() {
	wt.cancel()
	<-wt.done
}
