package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/dataset"
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/store"
)

// server holds the named datasets and serves join/range/KNN queries over
// them. All handlers are safe for concurrent use: the registry is guarded
// by a RWMutex and each dataset is an append-only snapshot (an append
// publishes a new one; upload replaces the entry wholesale).
type server struct {
	core
	// mu guards the sets map only — which entry a name resolves to — and is
	// held just for map reads and swaps; an entry's snapshot and index have
	// their own lock.
	mu   sync.RWMutex
	sets map[string]*entry
	// st, when non-nil, is the durable storage engine every mutation tees
	// through; rec is what it replayed at boot (reported by /healthz).
	st  *store.Catalog
	rec store.RecoveryInfo
	// live is the continuous-query engine: incremental per-dataset
	// indexes plus the standing-query subscriptions watch streams serve.
	live *live.Engine
	// buildIndex builds a point index over a snapshot. It is always
	// simjoin.NewNeighborIndex; it is a field so a test can hold a build.
	buildIndex func(*simjoin.Dataset) *simjoin.NeighborIndex
}

// entry is one registered dataset plus its point index. Appends publish a
// new snapshot that shares storage with the last (dataset.Grow), so an
// append copies only its batch and in-flight queries keep reading the
// snapshot they started with. The index survives appends: each one
// extends it over the new snapshot, whose new points it scans as a tail
// until a rebuild off the lock folds them into its tree (server.index).
type entry struct {
	mu sync.Mutex
	ds *simjoin.Dataset
	nn *simjoin.NeighborIndex // nil until the first range or knn query
	// rebuilding is set while a background rebuild of nn runs: one at a
	// time per entry.
	rebuilding bool
	// first runs the first query's build; later queries never build.
	first sync.Once
}

// dataset returns the current immutable snapshot.
func (e *entry) dataset() *simjoin.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds
}

// minRebuildTail and rebuildTail set when a query starts a background
// rebuild: once the scanned tail passes max(1 024, n/8) points. Measured
// at d = 8 on ten blobs, scanning an n/8 tail costs 15 / 25 / 35 µs per
// query at n = 20 k / 32 k / 45 k, against 10.5 / 16.3 / 27.9 ms for the
// k-d tree build, so the tail adds tens of microseconds to a query that
// costs a millisecond over HTTP, and each rebuild's CPU is paid once per
// n/8 appended points rather than once per append. Below 8 k points the
// 1 024-point floor (a few µs of scan) keeps small datasets from
// rebuilding every few appends.
const minRebuildTail = 1024

func rebuildTail(n int) int { return max(minRebuildTail, n/8) }

// index returns e's point index over its current snapshot for one range
// or knn request, noting on the request's span how many points it scans
// past its tree. The entry's first query builds the index and waits;
// every later query answers at once from tree + tail, and the one that
// finds the tail past rebuildTail starts a background rebuild. No build
// ever holds e.mu, so appends and queries run through it.
func (s *server) index(ctx context.Context, e *entry) *simjoin.NeighborIndex {
	e.first.Do(func() { s.rebuild(e, e.dataset()) })
	e.mu.Lock()
	nn := e.nn
	if !e.rebuilding && nn.Tail() > rebuildTail(e.ds.Len()) {
		e.rebuilding = true
		go s.rebuild(e, e.ds)
	}
	e.mu.Unlock()
	trace.FromContext(ctx).AddCounter("tail", int64(nn.Tail()))
	return nn
}

// rebuild builds an index over snapshot ds off the lock, then swaps it in
// extended over the entry's then-current snapshot — unless the index in
// place already covers more of it with its tree. Run in the background it
// ends after that one build; nothing waits for it, so a server shutting
// down abandons it.
func (s *server) rebuild(e *entry, ds *simjoin.Dataset) {
	start := time.Now()
	built := s.buildIndex(ds)
	s.m.indexRebuilds.Inc()
	s.m.indexRebuild.Observe(time.Since(start).Seconds())
	e.mu.Lock()
	defer e.mu.Unlock()
	if nn := built.Extend(e.ds); e.nn == nil || nn.Tail() < e.nn.Tail() {
		e.nn = nn
	}
	e.rebuilding = false
}

// appendPoints grows the entry by one snapshot holding batch. It returns
// the new length, or an error on a dimensionality mismatch (nothing
// changes in that case). The append copies only the batch: the new
// snapshot shares the old one's storage. notify, when non-nil, runs
// under the entry lock after a successful append with the new snapshot
// and the batch size — the same lock live tracking seeds under, so the
// engine sees every batch exactly once and in order.
func (e *entry) appendPoints(ctx context.Context, batch *dataset.Dataset, notify func(grown *simjoin.Dataset, added int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if dims := e.ds.Dims(); batch.Dims() != dims {
		return 0, fmt.Errorf("points have %d dims, dataset has %d", batch.Dims(), dims)
	}
	sp := trace.FromContext(ctx).Child("dataset.adopt")
	e.adoptGrown(simjoin.WrapDataset(e.ds.Internal().Grow(batch.Flat())), batch.Len())
	sp.End()
	if notify != nil {
		notify(e.ds, batch.Len())
	}
	return e.ds.Len(), nil
}

// adoptGrown swaps in a grown snapshot, whose last added points are new,
// under the entry lock, extending the index over it (its new points join
// the scanned tail) and carrying the predecessor's join-size sketch
// forward: the wrap deliberately dropped the sketch pointer, so the batch
// is attached and observed exactly once here.
func (e *entry) adoptGrown(grown *simjoin.Dataset, added int) {
	sk := e.ds.Sketch()
	grown.AttachSketch(sk)
	for i := grown.Len() - added; i < grown.Len(); i++ {
		sk.Observe(grown.Point(i))
	}
	e.ds = grown
	if e.nn != nil {
		e.nn = e.nn.Extend(grown)
	}
}

// appendThrough routes an append through the durable store and adopts
// the grown dataset it returns, so the in-memory snapshot and the WAL
// can never disagree on ordering for this dataset. notify has the
// appendPoints contract and fires only after the store committed.
func (e *entry) appendThrough(ctx context.Context, st *store.Catalog, name string, batch *dataset.Dataset, notify func(grown *simjoin.Dataset, added int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	grown, err := st.Append(ctx, name, batch.Rows())
	if err != nil {
		return 0, err
	}
	sp := trace.FromContext(ctx).Child("dataset.adopt")
	e.adoptGrown(simjoin.WrapDataset(grown), batch.Len())
	sp.End()
	if notify != nil {
		notify(e.ds, batch.Len())
	}
	return e.ds.Len(), nil
}

// seedLive registers the entry's current snapshot with the live engine.
// Holding the entry lock across the snapshot + Track pair means no
// append can slip between them: the live index starts exactly at this
// snapshot and the append notifications (which run under the same lock)
// carry everything after it.
func (e *entry) seedLive(eng *live.Engine, name string, eps float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	eng.Track(name, e.ds.Internal(), eps)
}

func newServer() *server {
	s := &server{
		// Every query error a worker can raise past its own lookups is the
		// library refusing the request's parameters.
		core:       newCore(func(error) int { return http.StatusBadRequest }),
		sets:       make(map[string]*entry),
		buildIndex: simjoin.NewNeighborIndex,
	}
	s.live = live.New(liveHooks(s.m))
	s.m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { return float64(s.live.Subscriptions()) })
	s.m.reg.NewGaugeFunc("simjoind_live_backlog",
		"Appended batches queued for the live engine and not yet applied.",
		func() float64 { return float64(s.live.Backlog()) })
	return s
}

func (s *server) handler() http.Handler {
	return s.mount(api.Routes{
		Healthz: s.handleHealthz, List: s.handleList, Get: s.handleGetDataset, Explain: s.handleExplain,
		Put: s.handlePut, Delete: s.handleDelete, Append: s.handleAppend, Watch: s.handleWatch,
		SelfJoin: s.handleSelfJoin, Range: s.handleRange, KNN: s.handleKNN, Join: s.handleJoin,
	}, nil, nil)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := api.Health{Status: "ok", StoreHealth: &api.StoreHealth{Datasets: len(s.sets)}, Build: buildVersion}
	s.mu.RUnlock()
	if s.st != nil {
		out.Persistence = &api.Persistence{
			Enabled:           true,
			Dir:               s.st.Dir(),
			WALBytes:          s.st.WALBytes(),
			RecoveredDatasets: len(s.rec.Datasets),
			ReplayedRecords:   s.rec.Records(),
			TruncatedTails:    s.rec.TruncatedTails(),
			Quarantined:       len(s.rec.Quarantined),
		}
	}
	api.WriteJSON(w, out)
}

// storeStatus maps storage-engine errors onto HTTP statuses: caller
// mistakes are 4xx, IO failures 500.
func storeStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &store.InputError{}):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// newEntry wraps a dataset for serving with a resident join-size sketch
// that prices every join on it: one pass over the points here, O(1) per
// point on every later append.
func newEntry(ds *simjoin.Dataset) *entry {
	ds.EnableSketch()
	return &entry{ds: ds}
}

// lookup fetches a dataset entry by name, answering 404 itself.
func (s *server) lookup(w http.ResponseWriter, name string) (*entry, bool) {
	s.mu.RLock()
	e, ok := s.sets[name]
	s.mu.RUnlock()
	if !ok {
		api.Error(w, http.StatusNotFound, "no dataset %q", name)
	}
	return e, ok
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]api.DatasetInfo, 0, len(s.sets))
	for name, e := range s.sets {
		ds := e.dataset()
		out = append(out, api.DatasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()})
	}
	s.mu.RUnlock()
	api.WriteJSON(w, out)
}

// decodeUpload parses a points body — JSON api.Points, text/csv, or
// the library's binary point format (api.ContentTypeSJN1, how a
// coordinator ships shards) — into a rectangular, non-empty dataset,
// writing the HTTP error itself when the body is unusable. Every points
// route reads through it: PUT and append, on worker and coordinator.
// An api.ContentTypeSJN1 body that does not open with the SJN1 magic is
// read as JSON: some clients label every raw body application/octet-stream.
func decodeUpload(w http.ResponseWriter, r *http.Request, limit int64) (*dataset.Dataset, bool) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, limit))
	ct := r.Header.Get("Content-Type")
	var ds *dataset.Dataset
	var err error
	if strings.HasPrefix(ct, "text/csv") {
		ds, err = readCSV(body)
	} else if br := bufio.NewReader(body); strings.HasPrefix(ct, api.ContentTypeSJN1) && isSJN1(br) {
		ds, err = readSJN1(br)
	} else {
		var dims int
		var flat []float64
		if dims, flat, err = api.DecodePoints(br); err == nil {
			ds = dataset.FromFlat(dims, flat)
		}
	}
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return ds, true
}

// readCSV reads a text/csv points body, every coordinate finite.
func readCSV(body io.Reader) (*dataset.Dataset, error) {
	ds, err := dataset.ReadCSV(body)
	if err != nil {
		return nil, fmt.Errorf("parsing CSV: %w", err)
	}
	if i, x, ok := nonFinite(ds); ok {
		return nil, fmt.Errorf("parsing CSV: data row %d has a non-finite coordinate %v", i+1, x)
	}
	return ds, nil
}

// isSJN1 reports whether br opens with the binary point format's magic.
func isSJN1(br *bufio.Reader) bool {
	magic, _ := br.Peek(len(dataset.BinaryMagic))
	return string(magic) == dataset.BinaryMagic
}

// readSJN1 reads a binary points body: exactly the points its header
// counts, at least one, every coordinate finite. JSON cannot carry NaN or
// ±Inf and the binary format (like the CSV float parser) can; no distance
// to such a point is meaningful, and none could be answered as JSON.
//
// The header's count is the client's word, so the body is buffered as its
// bytes arrive and its length checked against the header before any
// point is allocated: memory follows the bytes received, as for JSON.
func readSJN1(body io.Reader) (*dataset.Dataset, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, fmt.Errorf("parsing SJN1: %w", err)
	}
	b := buf.Bytes()
	// "SJN1" | uint32 dims | uint64 count | count·dims float64; ReadBinary
	// reports a short header or zero dims itself.
	if len(b) >= 16 {
		dims := uint64(binary.LittleEndian.Uint32(b[4:8]))
		count := binary.LittleEndian.Uint64(b[8:16])
		if payload := uint64(len(b) - 16); dims > 0 && (payload%(8*dims) != 0 || payload/(8*dims) != count) {
			return nil, fmt.Errorf("parsing SJN1: body holds %d bytes of points, its header counts %d points of %d dims", payload, count, dims)
		}
	}
	ds, err := dataset.ReadBinary(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("parsing SJN1: %w", err)
	}
	if ds.Len() == 0 {
		return nil, errors.New("parsing SJN1: no points in upload")
	}
	if i, x, ok := nonFinite(ds); ok {
		return nil, fmt.Errorf("parsing SJN1: point %d has a non-finite coordinate %v", i, x)
	}
	return ds, nil
}

// nonFinite finds the first point holding a NaN or ±Inf coordinate.
func nonFinite(ds *dataset.Dataset) (point int, x float64, ok bool) {
	for k, x := range ds.Flat() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return k / ds.Dims(), x, true
		}
	}
	return 0, 0, false
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		api.Error(w, http.StatusBadRequest, "dataset name required")
		return
	}
	up, ok := decodeUpload(w, r, s.maxBody)
	if !ok {
		return
	}
	ds := simjoin.WrapDataset(up)
	if s.st != nil {
		if err := s.st.Put(r.Context(), name, ds.Internal()); err != nil {
			api.Error(w, storeStatus(err), "%v", err)
			return
		}
	}
	// The sketch pass runs before the lock: every lookup on every dataset
	// waits while s.mu is held.
	e := newEntry(ds)
	s.mu.Lock()
	_, replaced := s.sets[name]
	s.sets[name] = e
	s.mu.Unlock()
	if replaced {
		// Standing queries were registered against the old incarnation's
		// indexes; end their streams cleanly rather than silently
		// switching datasets under them.
		s.live.Drop(name, live.ReasonReplaced)
	}
	api.WriteJSON(w, api.DatasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.sets[name]
	delete(s.sets, name)
	s.mu.Unlock()
	if !ok {
		api.Error(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	// In-flight watch streams for this dataset end with a terminal
	// {"event":"end","reason":"dataset deleted"} line, not a dropped
	// connection.
	s.live.Drop(name, live.ReasonDeleted)
	if s.st != nil {
		if err := s.st.Delete(r.Context(), name); err != nil && !errors.Is(err, store.ErrNotFound) {
			// The entry is gone from memory but its files remain; surface
			// the IO failure rather than pretending the delete is durable.
			api.Error(w, storeStatus(err), "%v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleAppend grows a dataset by one snapshot (POST …/points with an
// upload body); range/KNN queries that start after it answer see the new
// points at once, scanned as the index's tail until a background rebuild
// takes them into the tree.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(w, name)
	if !ok {
		return
	}
	sp := trace.FromContext(r.Context()).Child("upload.decode")
	batch, ok := decodeUpload(w, r, s.maxBody)
	sp.End()
	if !ok {
		return
	}
	// The engine queues the batch and applies it after the answer; its
	// delta reaches the watch streams in commit order all the same.
	notify := func(grown *simjoin.Dataset, added int) {
		s.live.Append(r.Context(), name, grown.Internal(), added)
	}
	var n int
	var err error
	if s.st != nil {
		n, err = e.appendThrough(r.Context(), s.st, name, batch, notify)
		if err != nil {
			api.Error(w, storeStatus(err), "%v", err)
			return
		}
	} else {
		n, err = e.appendPoints(r.Context(), batch, notify)
		if err != nil {
			api.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	api.WriteJSON(w, api.AppendResponse{DatasetInfo: api.DatasetInfo{Name: name, Len: n, Dims: e.dataset().Dims()}})
}

// collected and streamed report a library join back to runJoin.
func collected(res *simjoin.Result, err error) (joinRun, error) {
	if err != nil {
		return joinRun{}, err
	}
	run := joinRun{total: res.Stats.Results, elapsed: res.Stats.Elapsed, pairs: make([][2]int, len(res.Pairs))}
	for i, p := range res.Pairs {
		run.pairs[i] = [2]int{p.I, p.J}
	}
	return run, nil
}

func streamed(st simjoin.Stats, err error) (joinRun, error) {
	return joinRun{total: st.Results, elapsed: st.Elapsed}, err
}

func (s *server) handleSelfJoin(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(w, name)
	if !ok {
		return
	}
	var p api.JoinParams
	if !api.Decode(w, r, s.maxBody, &p) {
		return
	}
	ds := e.dataset()
	s.runJoin(w, r, "POST /datasets/{name}/selfjoin", querylog.Record{Kind: "selfjoin", Dataset: name}, p, joinCalls{
		price:   func(m simjoin.Metric, eps float64) int64 { return simjoin.PlanSelfJoin(ds, m, eps).EstimatedPairs },
		collect: func(opt simjoin.Options) (joinRun, error) { return collected(simjoin.SelfJoin(ds, opt)) },
		each: func(opt simjoin.Options, emit func(i, j int)) (joinRun, error) {
			return streamed(simjoin.SelfJoinEach(ds, opt, emit))
		},
	})
}

func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req api.TwoJoinRequest
	if !api.Decode(w, r, s.maxBody, &req) {
		return
	}
	ea, ok := s.lookup(w, req.A)
	if !ok {
		return
	}
	eb, ok := s.lookup(w, req.B)
	if !ok {
		return
	}
	da, db := ea.dataset(), eb.dataset()
	if da.Dims() != db.Dims() {
		api.Error(w, http.StatusBadRequest, "dimensionality mismatch: %d vs %d", da.Dims(), db.Dims())
		return
	}
	s.runJoin(w, r, "POST /join", querylog.Record{Kind: "join", Dataset: req.A, Dataset2: req.B}, req.JoinParams, joinCalls{
		price:   func(m simjoin.Metric, eps float64) int64 { return simjoin.PlanJoin(da, db, m, eps).EstimatedPairs },
		collect: func(opt simjoin.Options) (joinRun, error) { return collected(simjoin.Join(da, db, opt)) },
		each: func(opt simjoin.Options, emit func(i, j int)) (joinRun, error) {
			return streamed(simjoin.JoinEach(da, db, opt, emit))
		},
	})
}

// checkDims rejects a query point of the wrong dimensionality.
func checkDims(q api.PointQuery, ds *simjoin.Dataset) error {
	if len(q.Point) != ds.Dims() {
		return fmt.Errorf("query has %d dims, dataset has %d", len(q.Point), ds.Dims())
	}
	return nil
}

func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.pointQuery(w, r, "range", func(q api.PointQuery, m simjoin.Metric) (pointRun, error) {
		if err := checkDims(q, e.dataset()); err != nil {
			return pointRun{}, err
		}
		if !(q.Radius > 0) {
			return pointRun{}, errors.New("radius must be positive")
		}
		nn := s.index(r.Context(), e)
		idx := nn.Range(q.Point, m, q.Radius)
		if idx == nil {
			idx = []int{}
		}
		return pointRun{answer: api.RangeResponse{Indexes: idx}, n: len(idx), tail: nn.Tail()}, nil
	})
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.pointQuery(w, r, "knn", func(q api.PointQuery, m simjoin.Metric) (pointRun, error) {
		if err := checkDims(q, e.dataset()); err != nil {
			return pointRun{}, err
		}
		if q.K < 1 {
			return pointRun{}, errors.New("k must be ≥ 1")
		}
		nn := s.index(r.Context(), e)
		nbrs := nn.KNN(q.Point, q.K, m)
		out := make([]api.Neighbor, len(nbrs))
		for i, n := range nbrs {
			out[i] = api.Neighbor{Index: n.Index, Dist: n.Dist}
		}
		return pointRun{answer: api.KNNResponse{Neighbors: out}, n: len(out), tail: nn.Tail()}, nil
	})
}
