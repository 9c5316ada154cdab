package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"

	"simjoin"
	"simjoin/internal/api"
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/store"
)

// server holds the named datasets and serves join/range/KNN queries over
// them. All handlers are safe for concurrent use: the registry is guarded
// by a RWMutex and datasets are immutable once registered (upload replaces
// wholesale).
type server struct {
	core
	mu   sync.RWMutex
	sets map[string]*entry
	// st, when non-nil, is the durable storage engine every mutation tees
	// through; rec is what it replayed at boot (reported by /healthz).
	st  *store.Catalog
	rec store.RecoveryInfo
	// live is the continuous-query engine: incremental per-dataset
	// indexes plus the standing-query subscriptions watch streams serve.
	live *live.Engine
}

// entry is one registered dataset plus its lazily built query index.
// Appends are copy-on-write: a new Dataset replaces the pointer and the
// index is invalidated, so in-flight queries keep reading the immutable
// snapshot they started with.
type entry struct {
	mu sync.Mutex
	ds *simjoin.Dataset
	nn *simjoin.NeighborIndex
}

// dataset returns the current immutable snapshot.
func (e *entry) dataset() *simjoin.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds
}

// index returns the entry's neighbor index, building it if stale.
func (e *entry) index() *simjoin.NeighborIndex {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nn == nil {
		e.nn = simjoin.NewNeighborIndex(e.ds)
	}
	return e.nn
}

// appendPoints adds points copy-on-write and invalidates the index. It
// returns the new length, or an error on a dimensionality mismatch
// (nothing changes in that case). The clone reserves capacity for the
// whole batch up front, so an append costs one bulk copy of the existing
// points — not a point-by-point rebuild. notify, when non-nil, runs
// under the entry lock after a successful append with the batch and the
// new length — the same lock live tracking seeds under, so the engine
// sees every batch exactly once and in order.
func (e *entry) appendPoints(pts [][]float64, notify func(pts [][]float64, total int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range pts {
		if len(p) != e.ds.Dims() {
			return 0, fmt.Errorf("point %d has %d dims, dataset has %d", i, len(p), e.ds.Dims())
		}
	}
	grown := e.ds.CloneWithCap(len(pts))
	for _, p := range pts {
		grown.Append(p)
	}
	e.adoptGrown(grown, pts)
	if notify != nil {
		notify(pts, e.ds.Len())
	}
	return e.ds.Len(), nil
}

// adoptGrown swaps in a grown snapshot under the entry lock,
// invalidating the index and carrying the predecessor's join-size
// sketch forward: the clone/wrap deliberately dropped the sketch
// pointer, so the batch is attached and observed exactly once here.
func (e *entry) adoptGrown(grown *simjoin.Dataset, pts [][]float64) {
	sk := e.ds.Sketch()
	grown.AttachSketch(sk)
	for _, p := range pts {
		sk.Observe(p)
	}
	e.ds = grown
	e.nn = nil
}

// appendThrough routes an append through the durable store and adopts
// the grown dataset it returns, so the in-memory snapshot and the WAL
// can never disagree on ordering for this dataset. notify has the
// appendPoints contract and fires only after the store committed.
func (e *entry) appendThrough(ctx context.Context, st *store.Catalog, name string, pts [][]float64, notify func(pts [][]float64, total int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	grown, err := st.Append(ctx, name, pts)
	if err != nil {
		return 0, err
	}
	e.adoptGrown(simjoin.WrapDataset(grown), pts)
	if notify != nil {
		notify(pts, e.ds.Len())
	}
	return e.ds.Len(), nil
}

// seedLive registers the entry's current snapshot with the live engine.
// Holding the entry lock across the snapshot + Track pair means no
// append can slip between them: the mirror starts exactly at this
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
		core: newCore(func(error) int { return http.StatusBadRequest }),
		sets: make(map[string]*entry),
	}
	s.live = live.New(liveHooks(s.m))
	s.m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { return float64(s.live.Subscriptions()) })
	return s
}

func (s *server) handler() http.Handler {
	return s.mount(api.Routes{
		Healthz: s.handleHealthz, List: s.handleList, Get: s.handleGetDataset, Explain: s.handleExplain,
		Put: s.handlePut, Delete: s.handleDelete, Append: s.handleAppend, Watch: s.handleWatch,
		SelfJoin: s.handleSelfJoin, Range: s.handleRange, KNN: s.handleKNN, Join: s.handleJoin,
		TraceByID: s.handleTraceByID,
	})
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

// decodeUpload parses an upload body — JSON api.Points or text/csv —
// into a rectangular, non-empty point list, writing the HTTP error
// itself when the body is unusable. Shared by worker and coordinator
// upload handlers.
func decodeUpload(w http.ResponseWriter, r *http.Request, limit int64) ([][]float64, bool) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		ds, err := simjoin.ReadCSV(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			api.Error(w, http.StatusBadRequest, "parsing CSV: %v", err)
			return nil, false
		}
		pts := make([][]float64, ds.Len())
		for i := range pts {
			pts[i] = ds.Point(i)
			// JSON cannot carry NaN or ±Inf, the CSV float parser can; no
			// distance to such a point is meaningful, and none could be
			// answered as JSON.
			for _, x := range pts[i] {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					api.Error(w, http.StatusBadRequest, "parsing CSV: data row %d has a non-finite coordinate %v", i+1, x)
					return nil, false
				}
			}
		}
		return pts, true
	}
	var req api.Points
	if !api.Decode(w, r, limit, &req) {
		return nil, false
	}
	if len(req.Points) == 0 {
		api.Error(w, http.StatusBadRequest, "no points in upload")
		return nil, false
	}
	if len(req.Points[0]) == 0 {
		api.Error(w, http.StatusBadRequest, "point 0 has 0 dims")
		return nil, false
	}
	for i, p := range req.Points {
		if len(p) != len(req.Points[0]) {
			api.Error(w, http.StatusBadRequest, "point %d has %d dims, want %d", i, len(p), len(req.Points[0]))
			return nil, false
		}
	}
	return req.Points, true
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		api.Error(w, http.StatusBadRequest, "dataset name required")
		return
	}
	pts, ok := decodeUpload(w, r, s.maxBody)
	if !ok {
		return
	}
	ds := simjoin.FromPoints(pts)
	if s.st != nil {
		if err := s.st.Put(r.Context(), name, ds.Internal()); err != nil {
			api.Error(w, storeStatus(err), "%v", err)
			return
		}
	}
	s.mu.Lock()
	_, replaced := s.sets[name]
	s.sets[name] = newEntry(ds)
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

// handleAppend grows a dataset in place (POST …/points with api.Points);
// subsequent range/KNN queries see the new points after a lazy index
// rebuild.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(w, name)
	if !ok {
		return
	}
	var req api.Points
	if !api.Decode(w, r, s.maxBody, &req) {
		return
	}
	if len(req.Points) == 0 {
		api.Error(w, http.StatusBadRequest, "no points in append")
		return
	}
	notify := func(pts [][]float64, total int) {
		s.live.Append(r.Context(), name, pts, total)
	}
	var n int
	var err error
	if s.st != nil {
		n, err = e.appendThrough(r.Context(), s.st, name, req.Points, notify)
		if err != nil {
			api.Error(w, storeStatus(err), "%v", err)
			return
		}
	} else {
		n, err = e.appendPoints(req.Points, notify)
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
	s.pointQuery(w, r, "range", func(q api.PointQuery, m simjoin.Metric) (any, int, *api.Scatter, error) {
		if err := checkDims(q, e.dataset()); err != nil {
			return nil, 0, nil, err
		}
		if !(q.Radius > 0) {
			return nil, 0, nil, errors.New("radius must be positive")
		}
		idx := e.index().Range(q.Point, m, q.Radius)
		if idx == nil {
			idx = []int{}
		}
		return api.RangeResponse{Indexes: idx}, len(idx), nil, nil
	})
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.pointQuery(w, r, "knn", func(q api.PointQuery, m simjoin.Metric) (any, int, *api.Scatter, error) {
		if err := checkDims(q, e.dataset()); err != nil {
			return nil, 0, nil, err
		}
		if q.K < 1 {
			return nil, 0, nil, errors.New("k must be ≥ 1")
		}
		nbrs := e.index().KNN(q.Point, q.K, m)
		out := make([]api.Neighbor, len(nbrs))
		for i, n := range nbrs {
			out[i] = api.Neighbor{Index: n.Index, Dist: n.Dist}
		}
		return api.KNNResponse{Neighbors: out}, len(out), nil, nil
	})
}
