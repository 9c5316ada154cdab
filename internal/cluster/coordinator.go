package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"simjoin/internal/api"
	"simjoin/internal/dataset"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/pairs"
	"simjoin/internal/rclient"
)

// DefaultMargin is the boundary-replication width used when neither the
// coordinator nor the upload names one. Self-joins with eps above the
// margin are rejected, so it should comfortably exceed the largest eps
// the deployment queries with.
const DefaultMargin = 0.25

// Coordinator fronts a set of simjoind workers: it owns the shard maps,
// scatters uploads and queries, and gathers exact merged results.
// Methods are safe for concurrent use.
type Coordinator struct {
	workers []string
	margin  float64
	rc      *rclient.Client

	mu   sync.RWMutex
	sets map[string]*ShardMap

	// apMu serializes appends: each append extends the dataset's shard
	// map copy-on-write from its predecessor, so two concurrent extends
	// of the same base map would assign overlapping global indexes.
	apMu sync.Mutex
}

// New builds a Coordinator over the given worker base URLs. margin ≤ 0
// takes DefaultMargin; rc == nil takes an rclient.Client with RetryPOST
// enabled (every coordinator POST is a read-only query, so transport
// retries are safe).
func New(workers []string, margin float64, rc *rclient.Client) *Coordinator {
	if margin <= 0 {
		margin = DefaultMargin
	}
	if rc == nil {
		rc = &rclient.Client{RetryPOST: true}
	}
	return &Coordinator{
		workers: workers,
		margin:  margin,
		rc:      rc,
		sets:    make(map[string]*ShardMap),
	}
}

// Workers returns the worker base URLs in shard order.
func (c *Coordinator) Workers() []string { return c.workers }

// Margin returns the default boundary-replication width.
func (c *Coordinator) Margin() float64 { return c.margin }

// Client returns the resilient HTTP client the coordinator scatters
// with, exposing its retry counter to observability layers.
func (c *Coordinator) Client() *rclient.Client { return c.rc }

// NotFoundError reports a query against an unknown dataset.
type NotFoundError struct{ Name string }

func (e NotFoundError) Error() string { return fmt.Sprintf("no dataset %q", e.Name) }

// QueryError reports an invalid upload or query (an HTTP 400 at the API
// layer).
type QueryError struct{ Msg string }

func (e QueryError) Error() string { return e.Msg }

func queryErrorf(format string, args ...any) QueryError {
	return QueryError{Msg: fmt.Sprintf(format, args...)}
}

// UnavailableError reports a scatter in which no shard answered — there
// is no partial result worth returning.
type UnavailableError struct{ Failed []api.ShardError }

func (e UnavailableError) Error() string {
	return fmt.Sprintf("all %d shards failed (first: %s: %s)", len(e.Failed), e.Failed[0].URL, e.Failed[0].Err)
}

// Upload partitions pts across the workers under the given
// boundary-replication margin (0 = coordinator default) and registers
// the dataset. A failed worker upload rolls the dataset back everywhere.
func (c *Coordinator) Upload(ctx context.Context, name string, pts [][]float64, margin float64) (api.DatasetInfo, error) {
	if name == "" {
		return api.DatasetInfo{}, QueryError{Msg: "dataset name required"}
	}
	if len(pts) == 0 {
		return api.DatasetInfo{}, QueryError{Msg: "no points in upload"}
	}
	for i, p := range pts {
		if len(p) != len(pts[0]) {
			return api.DatasetInfo{}, queryErrorf("point %d has %d dims, want %d", i, len(p), len(pts[0]))
		}
	}
	if margin == 0 {
		margin = c.margin
	}
	if margin < 0 {
		return api.DatasetInfo{}, QueryError{Msg: "margin must be positive"}
	}
	sm, shardPts := Partition(pts, c.workers, margin)
	failed := c.scatter(ctx, "upload", sm, sm.nonEmpty(), func(ctx context.Context, s int) error {
		return sendPoints(ctx, c.rc.Put, c.datasetURL(sm, s, name), shardPts[s])
	})
	if len(failed) > 0 {
		// Best-effort rollback so no worker keeps a half-registered set.
		for _, s := range sm.nonEmpty() {
			if resp, err := c.rc.Delete(ctx, c.datasetURL(sm, s, name)); err == nil {
				resp.Body.Close()
			}
		}
		return api.DatasetInfo{}, UnavailableError{Failed: failed}
	}
	c.mu.Lock()
	c.sets[name] = sm
	c.mu.Unlock()
	return api.DatasetInfo{Name: name, Len: sm.Total, Dims: sm.Dims}, nil
}

// Delete unregisters the dataset and removes it from every worker
// (best-effort: a missing or down worker does not block the delete).
func (c *Coordinator) Delete(ctx context.Context, name string) error {
	c.mu.Lock()
	sm, ok := c.sets[name]
	delete(c.sets, name)
	c.mu.Unlock()
	if !ok {
		return NotFoundError{Name: name}
	}
	for _, s := range sm.nonEmpty() {
		if resp, err := c.rc.Delete(ctx, c.datasetURL(sm, s, name)); err == nil {
			resp.Body.Close()
		}
	}
	return nil
}

// List describes the registered datasets, sorted by name.
func (c *Coordinator) List() []api.DatasetInfo {
	c.mu.RLock()
	out := make([]api.DatasetInfo, 0, len(c.sets))
	for name, sm := range c.sets {
		out = append(out, api.DatasetInfo{Name: name, Len: sm.Total, Dims: sm.Dims})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Map returns the dataset's shard map, for introspection.
func (c *Coordinator) Map(name string) (*ShardMap, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sm, ok := c.sets[name]
	return sm, ok
}

// JoinQuery mirrors the worker self-join request.
type JoinQuery struct {
	Eps       float64
	Metric    string
	Algorithm string
	Workers   int
}

// JoinResult is a merged distributed self-join. When Partial is set,
// Pairs holds everything the live shards found and FailedShards names
// the shards whose contribution is missing.
type JoinResult struct {
	Pairs [][2]int
	*api.Scatter
}

// SelfJoin scatters the self-join to every non-empty shard and merges
// the answers into the exact global pair set (upload-order indexes,
// i < j, deduped across shards). It is SelfJoinEach collecting into a
// slice: dedup is positional (see SelfJoinEach), so the only merge-side
// buffer is the result itself — no per-shard pair sets, no dedup map.
func (c *Coordinator) SelfJoin(ctx context.Context, name string, q JoinQuery) (*JoinResult, error) {
	var col pairs.Collector
	sum, err := c.SelfJoinEach(ctx, name, q, col.Emit)
	if err != nil {
		return nil, err
	}
	sorted := col.Sorted()
	out := make([][2]int, len(sorted))
	for k, p := range sorted {
		out[k] = [2]int{int(p.I), int(p.J)}
	}
	return &JoinResult{Pairs: out, Scatter: sum.Scatter}, nil
}

// Range scatters an ε-range query to the shards whose slabs intersect
// the query ball (exact for any radius — cores cover the ball, replicas
// dedupe away) and merges the global indexes.
func (c *Coordinator) Range(ctx context.Context, name string, point []float64, radius float64, metric string) (*api.RangeResponse, error) {
	sm, ok := c.Map(name)
	if !ok {
		return nil, NotFoundError{Name: name}
	}
	if len(point) != sm.Dims {
		return nil, queryErrorf("query has %d dims, dataset has %d", len(point), sm.Dims)
	}
	if !(radius > 0) {
		return nil, QueryError{Msg: "radius must be positive"}
	}
	x := point[sm.Dim]
	targets := make([]int, 0)
	for _, s := range sm.RouteInterval(x-radius, x+radius) {
		if len(sm.Shards[s].Global) > 0 {
			targets = append(targets, s)
		}
	}
	merged := make(indexSet)
	var mu sync.Mutex
	failed := c.scatter(ctx, "range", sm, targets, func(ctx context.Context, s int) error {
		var out api.RangeResponse
		req := api.PointQuery{Point: point, Radius: radius, Metric: metric}
		if err := sendJSON(ctx, c.rc.Post, c.datasetURL(sm, s, name)+"/range", req, &out); err != nil {
			return err
		}
		mu.Lock()
		merged.addLocal(out.Indexes, sm.Shards[s].Global)
		mu.Unlock()
		return nil
	})
	if len(failed) == len(targets) && len(targets) > 0 {
		return nil, UnavailableError{Failed: failed}
	}
	return &api.RangeResponse{Indexes: merged.sorted(), Scatter: scattered(targets, failed)}, nil
}

// KNN scatters a k-nearest query to every non-empty shard (the k-th
// distance is unknown up front, so no shard can be pruned), takes each
// shard's local top-k, and keeps the k best after deduping replicas.
func (c *Coordinator) KNN(ctx context.Context, name string, point []float64, k int, metric string) (*api.KNNResponse, error) {
	sm, ok := c.Map(name)
	if !ok {
		return nil, NotFoundError{Name: name}
	}
	if len(point) != sm.Dims {
		return nil, queryErrorf("query has %d dims, dataset has %d", len(point), sm.Dims)
	}
	if k < 1 {
		return nil, QueryError{Msg: "k must be ≥ 1"}
	}
	targets := sm.nonEmpty()
	merged := make(neighborSet)
	var mu sync.Mutex
	failed := c.scatter(ctx, "knn", sm, targets, func(ctx context.Context, s int) error {
		var out api.KNNResponse
		req := api.PointQuery{Point: point, K: k, Metric: metric}
		if err := sendJSON(ctx, c.rc.Post, c.datasetURL(sm, s, name)+"/knn", req, &out); err != nil {
			return err
		}
		mu.Lock()
		for _, n := range out.Neighbors {
			// Skip points the worker gained after this query's map
			// snapshot (see indexSet.addLocal).
			if n.Index < 0 || n.Index >= len(sm.Shards[s].Global) {
				continue
			}
			merged.add(sm.Shards[s].Global[n.Index], n.Dist)
		}
		mu.Unlock()
		return nil
	})
	if len(failed) == len(targets) && len(targets) > 0 {
		return nil, UnavailableError{Failed: failed}
	}
	return &api.KNNResponse{Neighbors: merged.top(k), Scatter: scattered(targets, failed)}, nil
}

// Health polls every worker's /healthz concurrently and reports each
// outcome in worker order.
func (c *Coordinator) Health(ctx context.Context) []api.BackendHealth {
	return api.Probe(ctx, c.rc.Get, c.workers)
}

// scatter runs fn for each listed shard concurrently and gathers the
// failures, ordered by shard. When ctx carries a trace span, every
// shard RPC runs under its own child span — named "shard.<op>", tagged
// with the shard index, worker URL and outcome — and fn receives a
// context carrying that span, so the resilient client's per-attempt
// spans nest beneath it and its traceparent reaches the worker.
func (c *Coordinator) scatter(ctx context.Context, op string, sm *ShardMap, shards []int, fn func(ctx context.Context, shard int) error) []api.ShardError {
	parent := trace.FromContext(ctx)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []api.ShardError
	for _, s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sp := parent.Child("shard." + op)
			sp.SetAttr("shard", strconv.Itoa(s))
			sp.SetAttr("worker", sm.Shards[s].URL)
			err := fn(trace.NewContext(ctx, sp), s)
			if err != nil {
				attempts := rclient.Attempts(err)
				sp.SetAttr("status", "error")
				sp.SetAttr("error", err.Error())
				if attempts > 0 {
					sp.AddCounter("attempts", int64(attempts))
				}
				mu.Lock()
				failed = append(failed, api.ShardError{Shard: s, URL: sm.Shards[s].URL, Err: err.Error(), Attempts: attempts})
				mu.Unlock()
			} else {
				sp.SetAttr("status", "ok")
			}
			sp.End()
		}(s)
	}
	wg.Wait()
	sort.Slice(failed, func(i, j int) bool { return failed[i].Shard < failed[j].Shard })
	return failed
}

func (c *Coordinator) datasetURL(sm *ShardMap, shard int, name string) string {
	return sm.Shards[shard].URL + "/datasets/" + url.PathEscape(name)
}

// scattered is the answer block of a scatter over targets of which
// failed did not answer.
func scattered(targets []int, failed []api.ShardError) *api.Scatter {
	return &api.Scatter{Shards: len(targets), ShardFailures: api.ShardFailures{Partial: len(failed) > 0, FailedShards: failed}}
}

// sendJSON sends in as a JSON body through send (the client's Post or
// Put) and decodes the JSON answer into out (nil discards it), surfacing
// worker ErrorBody payloads as errors.
func sendJSON(ctx context.Context, send func(ctx context.Context, url, contentType string, body []byte) (*http.Response, error), url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := send(ctx, url, "application/json", body)
	if err != nil {
		return err
	}
	return drainResponse(resp, out)
}

// sendPoints ships a shard's points (at least one) through send as an
// api.ContentTypeSJN1 body: a worker copies the coordinates straight in,
// where JSON would cost a float-to-decimal round trip on each side.
func sendPoints(ctx context.Context, send func(ctx context.Context, url, contentType string, body []byte) (*http.Response, error), url string, pts [][]float64) error {
	var body bytes.Buffer
	body.Grow(16 + 8*len(pts)*len(pts[0]))
	if err := dataset.FromPoints(pts).WriteBinary(&body); err != nil {
		return err
	}
	resp, err := send(ctx, url, api.ContentTypeSJN1, body.Bytes())
	if err != nil {
		return err
	}
	return drainResponse(resp, nil)
}

// workerError turns a non-2xx worker answer into an error carrying the
// worker's own message.
func workerError(resp *http.Response) error {
	var we api.ErrorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&we)
	return fmt.Errorf("worker status %d: %s", resp.StatusCode, we.Error)
}

// drainResponse consumes resp, decoding into out on success (out may be
// nil) and converting non-2xx answers into errors.
func drainResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return workerError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
