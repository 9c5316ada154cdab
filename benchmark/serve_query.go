package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"simjoin"
)

// querySpec sizes serve_query. Frozen: see README.md, "Sizes".
type querySpec struct {
	dims, n   int
	radius    float64 // range queries
	k         int     // knn queries
	eps       float64 // the side op's self-join
	margin    float64 // coordinator's replication width; eps must not exceed it
	pool      int     // distinct query points
	sideEvery int     // every sideEvery-th op of a connection is the side op
	conns     int     // closed-loop connections, at most nproc
}

var serveQuerySpec = querySpec{dims: 8, n: 20000, radius: 0.1, k: 10, eps: 0.05, margin: 0.1, pool: 64, sideEvery: 100, conns: 2}

// pointOp is one prepared point query and its expected answer.
type pointOp struct {
	path string // "/range" or "/knn"
	body []byte
	want []int
}

type queryWorkload struct {
	spec     querySpec
	slice    int // which dataset of the run is loaded; tells its ops from other slices'
	pts      [][]float64
	queries  [][]float64
	ops      []pointOp // range and knn alternate
	joinBody []byte
	joinRef  pairSum
	t        *tally
}

// queryStack is gateway → coordinator → two in-memory workers.
type queryStack struct {
	*stack
	workers   []*proc
	coord, gw *proc
}

func runServeQuery(cfg runConfig, _ string) (*outcome, error) {
	spec := serveQuerySpec
	if cfg.smoke {
		spec.n, spec.pool = spec.n/10, 32
	}
	w := &queryWorkload{spec: spec, t: &tally{}}
	r := rand.New(rand.NewSource(cfg.seed))
	out := &outcome{values: map[string]float64{}}

	var setups, rss []float64
	var phases []phase
	reps, slice := cfg.slices()
	for i := 0; i < reps; i++ {
		// Every slice gets a dataset of its own, so a run averages over
		// where the blobs fall relative to the shard cuts.
		if err := w.generate(r); err != nil {
			return nil, err
		}
		w.slice = i
		start := time.Now()
		st, err := w.setUp(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		w.drive(runConfig{}, st.gw.url, cfg.duration(0.02)) // discarded warm-up
		tiers := []*proc{st.gw, st.coord, st.workers[0], st.workers[1]}
		before := scrapeAll(tiers)
		ph := w.drive(cfg, st.gw.url, slice)
		phases = append(phases, ph)
		rss = append(rss, st.peakRSS())
		if cfg.trace {
			w.scraped(out.values, before, scrapeAll(tiers), float64(len(ph.side)))
			if err := w.ladder(cfg, st, out.values); err != nil {
				return nil, err
			}
		}
		st.stop()
	}
	out.values["setup_s"] = lowest(setups)
	if !cfg.trace {
		out.endToEnd(phases, rss)
	} else {
		out.traceDiag(phases[0])
	}
	out.attempted, out.failed = w.t.counts()
	out.notes = w.t.notes
	return out, nil
}

// generate draws the next dataset, query pool and expected answers.
func (w *queryWorkload) generate(r *rand.Rand) error {
	b := newBlobs(r, w.spec.dims)
	w.pts = b.points(r, w.spec.n)
	w.queries = b.points(r, w.spec.pool)
	w.ops = nil
	for _, q := range w.queries {
		w.ops = append(w.ops,
			pointOp{"/range", mustJSON(pointQuery{Point: q, Radius: w.spec.radius}), bruteRange(w.pts, q, w.spec.radius)},
			pointOp{"/knn", mustJSON(pointQuery{Point: q, K: w.spec.k}), bruteKNN(w.pts, q, w.spec.k)})
	}
	w.joinBody = mustJSON(joinQuery{Eps: w.spec.eps})
	var err error
	w.joinRef, err = joinReference(r, w.pts, nil, w.spec.eps)
	return err
}

// setUp boots the stack to healthy, uploads the dataset through the
// gateway and runs one op of each kind.
func (w *queryWorkload) setUp(cfg runConfig) (*queryStack, error) {
	s, err := newStack(cfg)
	if err != nil {
		return nil, err
	}
	st := &queryStack{stack: s}
	var urls []string
	for i := 0; i < 2; i++ {
		p, err := s.start(fmt.Sprintf("worker%d", i))
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, p)
		urls = append(urls, p.url)
	}
	if st.coord, err = s.start("coordinator", "-workers", strings.Join(urls, ","), "-margin", fmt.Sprint(w.spec.margin)); err != nil {
		return nil, err
	}
	tenants, err := s.writeTenants()
	if err != nil {
		return nil, err
	}
	if st.gw, err = s.start("gateway", "-gateway", "-backends", st.coord.url, "-tenants", tenants); err != nil {
		return nil, err
	}
	c := newConn()
	defer c.close()
	if err := upload(c, st.gw.url, w.pts); err != nil {
		return nil, err
	}
	w.point(c, st.gw.url, 0, 0, nil)
	w.point(c, st.gw.url, 1, 0, nil)
	w.join(c, st.gw.url, 0, nil)
	return st, nil
}

// drive runs the closed loop against base for d: spec.conns connections,
// each sending its next op when the last one is answered.
func (w *queryWorkload) drive(cfg runConfig, base string, d time.Duration) phase {
	var all phase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < w.spec.conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			var ph phase
			// Connections walk the op pool from evenly spaced starting
			// points, so they do not ask the same question at once. An
			// op's repeats are the same question put to the same dataset.
			offset := ci * len(w.ops) / w.spec.conns
			keys := w.slice * len(w.ops)
			for i := 0; time.Since(start) < d; i++ {
				op := ci + i*w.spec.conns // unique across connections
				rec := cfg.recFor(i)
				if i%w.spec.sideEvery == w.spec.sideEvery-1 {
					took, _ := w.join(c, base, op, rec)
					ph.sideOp(w.slice, took)
				} else {
					took := w.point(c, base, offset+i, op, rec)
					ph.primary(cfg, rec, keys+(offset+i)%len(w.ops), took)
				}
			}
			mu.Lock()
			all.merge(ph)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	all.wall = time.Since(start)
	return all
}

// point sends the k-th point query of the pool to base, checks the answer
// and returns the latency; op labels the spans.
func (w *queryWorkload) point(c *conn, base string, k, op int, rec *recorder) time.Duration {
	q := w.ops[k%len(w.ops)]
	data, took, done, err := c.timed(rec, "op"+q.path, op, http.MethodPost, datasetURL(base, q.path), q.body)
	defer done()
	var got []int
	if err == nil {
		if q.path == "/range" {
			var a rangeAnswer
			err = json.Unmarshal(data, &a)
			got = a.Indexes
			sort.Ints(got)
		} else {
			var a knnAnswer
			err = json.Unmarshal(data, &a)
			for _, n := range a.Neighbors {
				got = append(got, n.Index)
			}
		}
	}
	switch {
	case err != nil:
		w.t.fail("%s query %d at %s: %v", q.path, k, base, err)
	case !equalInts(got, q.want):
		w.t.fail("%s query %d at %s: got %v, want %v", q.path, k, base, got, q.want)
	default:
		w.t.ok()
	}
	return took
}

// join sends the side op, a collect-mode self-join, to base, checks the
// answer and returns the latency and the answer's size in bytes.
func (w *queryWorkload) join(c *conn, base string, op int, rec *recorder) (time.Duration, int) {
	data, took, done, err := c.timed(rec, "op/selfjoin", op, http.MethodPost, datasetURL(base, "/selfjoin"), w.joinBody)
	defer done()
	var a joinAnswer
	if err == nil {
		err = json.Unmarshal(data, &a)
	}
	var got pairSum
	for _, p := range a.Pairs {
		got.addSelf(p[0], p[1])
	}
	switch {
	case err != nil:
		w.t.fail("selfjoin at %s: %v", base, err)
	case got != w.joinRef || a.Total != w.joinRef.N:
		w.t.fail("selfjoin at %s: pair set %+v (total %d), want %+v", base, got, a.Total, w.joinRef)
	default:
		w.t.ok()
	}
	return took, len(data)
}

func scrapeAll(tiers []*proc) []map[string]float64 {
	out := make([]map[string]float64, len(tiers))
	for i, p := range tiers {
		out[i] = scrape(p.url)
	}
	return out
}

// scraped derives the counts the tiers themselves keep, over the traced
// phase: tiers are gateway, coordinator, then the workers.
func (w *queryWorkload) scraped(v map[string]float64, before, after []map[string]float64, joins float64) {
	const gw, coord = 0, 1
	v["gateway.queue_wait_ms"] = meanMS(before[gw], after[gw], "simjoin_gw_queue_wait_seconds")
	v["gateway.priced_per_join"] = ratio(delta(before[gw], after[gw], "simjoin_gw_priced_total", ""), joins)
	v["gateway.shed"] = delta(before[gw], after[gw], "simjoin_gw_shed_total", "")
	v["cluster.fanout_ms"] = meanMS(before[coord], after[coord], "simjoind_fanout_duration_seconds")
	const queries = `route="POST `
	shardRPCs := 0.0
	for i := coord + 1; i < len(before); i++ {
		shardRPCs += delta(before[i], after[i], "simjoind_requests_total", queries)
	}
	v["cluster.shard_rpcs_per_req"] = ratio(shardRPCs, delta(before[coord], after[coord], "simjoind_requests_total", queries))
	v["rclient.retries"] = delta(before[coord], after[coord], "simjoind_rclient_retries_total", "") +
		delta(before[gw], after[gw], "simjoin_gw_rclient_retries_total", "")
}

// ladder replays one request schedule, on one connection, at each entry
// point in turn — in-process engine, a lone worker holding the whole set,
// coordinator, gateway — and differences the medians: what each tier adds
// over the one below.
func (w *queryWorkload) ladder(cfg runConfig, st *queryStack, v map[string]float64) error {
	solo, err := st.start("solo-worker")
	if err != nil {
		return err
	}
	c := newConn()
	defer c.close()
	if err := upload(c, solo.url, w.pts); err != nil {
		return err
	}
	ds := simjoin.FromPoints(w.pts)
	ds.EnableSketch()
	index := simjoin.NewNeighborIndex(ds)

	tiers := []*proc{solo, st.coord, st.gw}
	point, joinAt := make([]latencies, len(tiers)), make([]latencies, len(tiers))
	var enginePoint latencies
	var engine engineTimes
	var respBytes float64
	const joinEvery = 10
	deadline := time.Now().Add(cfg.duration(0.3))
	for i := 0; i < 2*joinEvery || time.Now().Before(deadline); i++ {
		op := -1 - i // ladder requests are not ops of the schedule
		if i%joinEvery == joinEvery-1 {
			for t, p := range tiers {
				took, n := w.join(c, p.url, op, cfg.rec)
				joinAt[t].add(took)
				if t == 0 {
					respBytes = float64(n)
				}
			}
			root := cfg.rec.start("layers", -1, op)
			engine.round(probe{cfg.rec, root, op}, ds, simjoin.Options{Eps: w.spec.eps})
			cfg.rec.end(root)
			continue
		}
		for t, p := range tiers {
			point[t].add(w.point(c, p.url, i, op, cfg.rec))
		}
		q := w.queries[i/2%len(w.queries)]
		start := time.Now()
		if i%2 == 0 {
			index.Range(q, simjoin.L2, w.spec.radius)
		} else {
			index.KNN(q, w.spec.k, simjoin.L2)
		}
		enginePoint.add(time.Since(start))
	}

	engine.fill(v)
	v["core.point_query_us"] = 1000 * enginePoint.p(50)
	v["simjoind.point_p50_ms"] = point[0].p(50)
	v["simjoind.join_p50_ms"] = joinAt[0].p(50)
	v["simjoind.http_overhead_ms"] = joinAt[0].p(50) - engine.public.p(50)
	v["simjoind.resp_bytes_per_pair"] = ratio(respBytes, float64(w.joinRef.N))
	v["cluster.point_overhead_ms"] = point[1].p(50) - point[0].p(50)
	v["cluster.join_overhead_ms"] = joinAt[1].p(50) - joinAt[0].p(50)
	v["gateway.point_overhead_ms"] = point[2].p(50) - point[1].p(50)
	v["gateway.join_overhead_ms"] = joinAt[2].p(50) - joinAt[1].p(50)
	return nil
}
