package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/dataset"
	"simjoin/internal/jointest"
	"simjoin/internal/rclient"
)

// fakeWorker is a minimal in-process simjoind worker: it stores uploaded
// datasets and answers selfjoin/range/knn by brute force (L2), which
// doubles as the oracle the merged cluster answers are checked against.
type fakeWorker struct {
	mu            sync.Mutex
	sets          map[string][][]float64
	failSelfJoins int // inject: fail this many selfjoin calls with 503
	// change closes (and is replaced) on every dataset mutation, waking
	// watch streams; watchConns counts the streams currently attached.
	// endAfterBatch injects worker churn: every watch stream ends itself
	// after one delivered batch, forcing the coordinator to reconnect
	// with its cursor.
	change        chan struct{}
	watchConns    int
	endAfterBatch bool
}

// bump wakes every watch stream; call with mu held.
func (f *fakeWorker) bump() {
	close(f.change)
	f.change = make(chan struct{})
}

func (f *fakeWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
	})
	mux.HandleFunc("PUT /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		pts, ok := readShard(r)
		if !ok {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "bad upload"})
			return
		}
		f.mu.Lock()
		f.sets[r.PathValue("name")] = pts
		f.bump()
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"len": len(pts)})
	})
	mux.HandleFunc("DELETE /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		delete(f.sets, r.PathValue("name"))
		f.bump()
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /datasets/{name}/points", func(w http.ResponseWriter, r *http.Request) {
		batch, ok := readShard(r)
		if !ok {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "bad append"})
			return
		}
		name := r.PathValue("name")
		f.mu.Lock()
		pts, ok := f.sets[name]
		if !ok {
			f.mu.Unlock()
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no dataset"})
			return
		}
		f.sets[name] = append(pts, batch...)
		n := len(f.sets[name])
		f.bump()
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"len": n})
	})
	mux.HandleFunc("POST /datasets/{name}/watch", f.handleWatch)
	mux.HandleFunc("POST /datasets/{name}/selfjoin", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		if f.failSelfJoins > 0 {
			f.failSelfJoins--
			f.mu.Unlock()
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "injected failure"})
			return
		}
		pts := f.sets[r.PathValue("name")]
		f.mu.Unlock()
		var q struct {
			Eps float64 `json:"eps"`
		}
		_ = json.NewDecoder(r.Body).Decode(&q)
		json.NewEncoder(w).Encode(map[string]any{"pairs": jointest.SelfPairs(pts, q.Eps)})
	})
	mux.HandleFunc("POST /datasets/{name}/range", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		pts := f.sets[r.PathValue("name")]
		f.mu.Unlock()
		var q struct {
			Point  []float64 `json:"point"`
			Radius float64   `json:"radius"`
		}
		_ = json.NewDecoder(r.Body).Decode(&q)
		json.NewEncoder(w).Encode(map[string]any{"indexes": jointest.Range(pts, q.Point, q.Radius)})
	})
	mux.HandleFunc("POST /datasets/{name}/knn", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		pts := f.sets[r.PathValue("name")]
		f.mu.Unlock()
		var q struct {
			Point []float64 `json:"point"`
			K     int       `json:"k"`
		}
		_ = json.NewDecoder(r.Body).Decode(&q)
		json.NewEncoder(w).Encode(map[string]any{"neighbors": jointest.KNN[api.Neighbor](pts, q.Point, q.K)})
	})
	return mux
}

// readShard reads the body a coordinator ships a shard in: SJN1 points,
// at least one.
func readShard(r *http.Request) ([][]float64, bool) {
	if r.Header.Get("Content-Type") != api.ContentTypeSJN1 {
		return nil, false
	}
	ds, err := dataset.ReadBinary(r.Body)
	if err != nil || ds.Len() == 0 {
		return nil, false
	}
	return ds.Rows(), true
}

func fastTestClient() *rclient.Client {
	return &rclient.Client{
		MaxRetries:     2,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       10 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		RetryPOST:      true,
	}
}

// newTestCluster starts k fake workers and a coordinator over them.
func newTestCluster(t *testing.T, k int, margin float64) (*Coordinator, []*httptest.Server, []*fakeWorker) {
	t.Helper()
	servers := make([]*httptest.Server, k)
	fakes := make([]*fakeWorker, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		fakes[i] = &fakeWorker{sets: make(map[string][][]float64), change: make(chan struct{})}
		servers[i] = httptest.NewServer(fakes[i].handler())
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	return New(urls, margin, fastTestClient()), servers, fakes
}

func TestDistributedSelfJoinMatchesSingleNode(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 0.15)
	pts := jointest.UniformPoints(300, 4, 42)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	res, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.12})
	if err != nil {
		t.Fatalf("SelfJoin: %v", err)
	}
	if res.Partial || len(res.FailedShards) != 0 {
		t.Fatalf("unexpected partial result: %+v", res.FailedShards)
	}
	want := jointest.SelfPairs(pts, 0.12)
	if !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("distributed pairs differ from single-node: got %d pairs, want %d", len(res.Pairs), len(want))
	}
	if res.Shards < 2 {
		t.Fatalf("join only touched %d shards — partitioning is broken", res.Shards)
	}
}

func TestSelfJoinPartialWhenWorkerDies(t *testing.T) {
	c, servers, _ := newTestCluster(t, 3, 0.15)
	pts := jointest.UniformPoints(200, 3, 7)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	full, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.1})
	if err != nil {
		t.Fatalf("SelfJoin: %v", err)
	}

	servers[1].Close()
	res, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.1})
	if err != nil {
		t.Fatalf("SelfJoin with dead worker: %v", err)
	}
	if !res.Partial {
		t.Fatal("want partial result with a dead worker")
	}
	found := false
	for _, f := range res.FailedShards {
		if f.URL == servers[1].URL && f.Shard == 1 && f.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("failed shards = %+v, want shard 1 at %s", res.FailedShards, servers[1].URL)
	}
	// Partial pairs must be a subset of the full answer.
	fullSet := make(map[[2]int]bool, len(full.Pairs))
	for _, p := range full.Pairs {
		fullSet[p] = true
	}
	for _, p := range res.Pairs {
		if !fullSet[p] {
			t.Fatalf("partial result invented pair %v", p)
		}
	}
}

func TestSelfJoinRetriesFlakyWorker(t *testing.T) {
	c, _, fakes := newTestCluster(t, 3, 0.15)
	pts := jointest.UniformPoints(150, 3, 9)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	fakes[0].mu.Lock()
	fakes[0].failSelfJoins = 1
	fakes[0].mu.Unlock()
	res, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.1})
	if err != nil {
		t.Fatalf("SelfJoin: %v", err)
	}
	if res.Partial {
		t.Fatalf("retry should have absorbed the flake: %+v", res.FailedShards)
	}
	if want := jointest.SelfPairs(pts, 0.1); !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("pairs differ after retry: got %d, want %d", len(res.Pairs), len(want))
	}
}

func TestSelfJoinAllShardsDown(t *testing.T) {
	c, servers, _ := newTestCluster(t, 2, 0.15)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", jointest.UniformPoints(50, 2, 11), 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	for _, s := range servers {
		s.Close()
	}
	_, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.1})
	var ue UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnavailableError", err)
	}
}

func TestSelfJoinEpsExceedsMargin(t *testing.T) {
	c, _, _ := newTestCluster(t, 2, 0.1)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", jointest.UniformPoints(50, 2, 12), 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	_, err := c.SelfJoin(ctx, "d", JoinQuery{Eps: 0.5})
	var qe QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want QueryError for eps > margin", err)
	}
}

func TestRangeMatchesSingleNode(t *testing.T) {
	c, _, _ := newTestCluster(t, 4, 0.1)
	pts := jointest.UniformPoints(250, 3, 13)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	q := []float64{0.5, 0.5, 0.5}
	// Radius beyond the margin: range routing does not depend on it.
	const radius = 0.3
	res, err := c.Range(ctx, "d", q, radius, "")
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	want := jointest.Range(pts, q, radius)
	if !reflect.DeepEqual(res.Indexes, want) {
		t.Fatalf("range indexes = %v, want %v", res.Indexes, want)
	}
}

func TestKNNMatchesSingleNode(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 0.1)
	pts := jointest.UniformPoints(250, 3, 14)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	q := []float64{0.2, 0.8, 0.4}
	const k = 10
	res, err := c.KNN(ctx, "d", q, k, "")
	if err != nil {
		t.Fatalf("KNN: %v", err)
	}
	all := jointest.KNN[api.Neighbor](pts, q, len(pts))
	if !reflect.DeepEqual(res.Neighbors, all[:k]) {
		t.Fatalf("knn = %v, want %v", res.Neighbors, all[:k])
	}
}

func TestUploadAndQueryValidation(t *testing.T) {
	c, _, _ := newTestCluster(t, 2, 0.1)
	ctx := context.Background()
	var qe QueryError
	if _, err := c.Upload(ctx, "d", nil, 0); !errors.As(err, &qe) {
		t.Errorf("empty upload: err = %v, want QueryError", err)
	}
	if _, err := c.Upload(ctx, "d", [][]float64{{1}, {1, 2}}, 0); !errors.As(err, &qe) {
		t.Errorf("ragged upload: err = %v, want QueryError", err)
	}
	var nfe NotFoundError
	if _, err := c.SelfJoin(ctx, "nope", JoinQuery{Eps: 0.1}); !errors.As(err, &nfe) {
		t.Errorf("selfjoin missing: err = %v, want NotFoundError", err)
	}
	if _, err := c.Range(ctx, "nope", []float64{0}, 0.1, ""); !errors.As(err, &nfe) {
		t.Errorf("range missing: err = %v, want NotFoundError", err)
	}
	if _, err := c.Upload(ctx, "d", jointest.UniformPoints(20, 2, 15), 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if _, err := c.Range(ctx, "d", []float64{0}, 0.1, ""); !errors.As(err, &qe) {
		t.Errorf("range dims mismatch: err = %v, want QueryError", err)
	}
	if _, err := c.KNN(ctx, "d", []float64{0, 0}, 0, ""); !errors.As(err, &qe) {
		t.Errorf("knn k=0: err = %v, want QueryError", err)
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	c, _, fakes := newTestCluster(t, 3, 0.1)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", jointest.UniformPoints(60, 2, 16), 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if err := c.Delete(ctx, "d"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for i, f := range fakes {
		f.mu.Lock()
		_, ok := f.sets["d"]
		f.mu.Unlock()
		if ok {
			t.Errorf("worker %d still holds the deleted dataset", i)
		}
	}
	var nfe NotFoundError
	if err := c.Delete(ctx, "d"); !errors.As(err, &nfe) {
		t.Errorf("second delete: err = %v, want NotFoundError", err)
	}
	if got := c.List(); len(got) != 0 {
		t.Errorf("List after delete = %v", got)
	}
}

func TestUploadRollsBackOnWorkerFailure(t *testing.T) {
	c, servers, fakes := newTestCluster(t, 3, 0.1)
	servers[2].Close()
	ctx := context.Background()
	_, err := c.Upload(ctx, "d", jointest.UniformPoints(100, 2, 17), 0)
	var ue UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("upload with dead worker: err = %v, want UnavailableError", err)
	}
	for i := 0; i < 2; i++ {
		fakes[i].mu.Lock()
		_, ok := fakes[i].sets["d"]
		fakes[i].mu.Unlock()
		if ok {
			t.Errorf("worker %d kept a rolled-back upload", i)
		}
	}
	if got := c.List(); len(got) != 0 {
		t.Errorf("List after failed upload = %v", got)
	}
}

func TestHealthReportsDeadWorker(t *testing.T) {
	c, servers, _ := newTestCluster(t, 3, 0.1)
	servers[2].Close()
	hs := c.Health(context.Background())
	if len(hs) != 3 {
		t.Fatalf("health entries = %d", len(hs))
	}
	if !hs[0].OK || !hs[1].OK {
		t.Errorf("live workers reported unhealthy: %+v", hs)
	}
	if hs[2].OK || hs[2].Err == "" {
		t.Errorf("dead worker reported healthy: %+v", hs[2])
	}
}

// gridPoints draws n points on the 1/64 grid of the unit square, so
// points, cuts and query offsets collide and distances tie often.
func gridPoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(rng.Intn(65)) / 64, float64(rng.Intn(65)) / 64}
	}
	return pts
}

// TestPointQueriesMatchBruteAtCuts holds coverage routing to brute force
// where it is most fragile: queries on and around every cut and every
// replica strip's top, radii up to twice the margin, k from 1 past n,
// over an upload plus an append. Whenever one shard covers the range
// ball, or the home shard covers the k-th neighbour's ball, the query
// must have asked that shard alone.
func TestPointQueriesMatchBruteAtCuts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(33))
	for _, workers := range []int{2, 3, 4} {
		for _, margin := range []float64{0.05, 0.1, 0.25} {
			c, _, _ := newTestCluster(t, workers, margin)
			pts := gridPoints(rng, 120)
			if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
				t.Fatalf("Upload: %v", err)
			}
			more := gridPoints(rng, 40)
			if res, err := c.Append(ctx, "d", more); err != nil || res.Partial {
				t.Fatalf("Append: %v %+v", err, res)
			}
			pts = append(pts, more...)
			sm, _ := c.Map("d")
			var single, multi int
			for _, base := range sm.Cuts {
				for _, at := range []float64{base, base + margin} {
					for _, off := range []float64{0, 1. / 64, -1. / 64, 0.05, -0.05, margin, -margin} {
						q := []float64{float64(rng.Intn(65)) / 64, float64(rng.Intn(65)) / 64}
						x := at + off
						q[sm.Dim] = x
						for _, r := range []float64{1. / 64, 0.05, margin / 2, margin, 2 * margin} {
							res, err := c.Range(ctx, "d", q, r, "")
							if err != nil {
								t.Fatalf("Range: %v", err)
							}
							want := jointest.Range(pts, q, r)
							if !reflect.DeepEqual(res.Indexes, want) {
								t.Fatalf("%d workers, margin %g: range(%v, %g) = %v, want %v", workers, margin, q, r, res.Indexes, want)
							}
							if s := sm.route(x-r, x+r); len(s) == 1 && len(sm.Shards[s[0]].Global) > 0 {
								single++
								if res.Shards != 1 {
									t.Fatalf("range(%v, %g) is covered by shard %d but asked %d shards", q, r, s[0], res.Shards)
								}
							} else {
								multi++
							}
						}
						for _, k := range []int{1, 3, 10, 40, len(pts) + 5} {
							res, err := c.KNN(ctx, "d", q, k, "")
							if err != nil {
								t.Fatalf("KNN: %v", err)
							}
							want := jointest.KNN[api.Neighbor](pts, q, k)
							if !reflect.DeepEqual(res.Neighbors, want) {
								t.Fatalf("%d workers, margin %g: knn(%v, %d) = %v, want %v", workers, margin, q, k, res.Neighbors, want)
							}
							rk := want[len(want)-1].Dist
							if h := sm.home(x); h >= 0 && k <= len(sm.Shards[h].Global) && sm.covers(h, x-rk, x+rk) {
								single++
								if res.Shards != 1 {
									t.Fatalf("knn(%v, %d): home shard %d covers r_k = %g but %d shards were asked", q, k, h, rk, res.Shards)
								}
							} else {
								multi++
							}
						}
					}
				}
			}
			if single == 0 || multi == 0 {
				t.Fatalf("%d workers, margin %g: %d single-shard and %d multi-shard queries; the cases do not reach both", workers, margin, single, multi)
			}
		}
	}
}

// TestPointQueriesPartialWhenHomeShardDies: coverage routing keeps the
// degradation contract. A query whose one routed shard is down falls
// back to the other shards it would have asked before routing by
// coverage, and answers a labelled partial naming the dead shard; only a
// query with no live shard to ask fails outright.
func TestPointQueriesPartialWhenHomeShardDies(t *testing.T) {
	c, servers, _ := newTestCluster(t, 3, 0.1)
	pts := jointest.UniformPoints(300, 2, 21)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", pts, 0); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sm, _ := c.Map("d")
	mid := func(x float64) []float64 {
		q := []float64{0.5, 0.5}
		q[sm.Dim] = x
		return q
	}
	// Shard 1's slab is [Cuts[0], Cuts[1]); its middle is stored on it alone.
	inside := mid((sm.Cuts[0] + sm.Cuts[1]) / 2)
	if h := sm.home(inside[sm.Dim]); h != 1 {
		t.Fatalf("home of the slab's middle = %d, want 1", h)
	}
	res, err := c.Range(ctx, "d", inside, 0.02, "")
	if err != nil || res.Shards != 1 {
		t.Fatalf("range inside shard 1: %v, %+v", err, res)
	}
	servers[1].Close()

	failedOn1 := func(s *api.Scatter) bool {
		return s.Partial && len(s.FailedShards) == 1 && s.FailedShards[0].Shard == 1 && s.FailedShards[0].URL == servers[1].URL
	}
	knn, err := c.KNN(ctx, "d", inside, 5, "")
	if err != nil {
		t.Fatalf("KNN with the home shard down: %v", err)
	}
	if !failedOn1(knn.Scatter) || knn.Shards != 3 || len(knn.Neighbors) != 5 {
		t.Fatalf("KNN with the home shard down = %+v, want 5 neighbours, partial, 3 shards asked, shard 1 failed", knn)
	}
	// The live shards' answer: the points shards 0 and 2 store.
	var live [][]float64
	var liveIdx []int
	for g, p := range pts {
		if x := p[sm.Dim]; sm.covers(0, x, x) || sm.covers(2, x, x) {
			live, liveIdx = append(live, p), append(liveIdx, g)
		}
	}
	want := jointest.KNN[api.Neighbor](live, inside, 5)
	for i := range want {
		want[i].Index = liveIdx[want[i].Index]
	}
	if !reflect.DeepEqual(knn.Neighbors, want) {
		t.Fatalf("partial KNN = %v, want the live shards' %v", knn.Neighbors, want)
	}

	// On cut 1 with a radius under the margin: shard 1 covers the ball,
	// and shard 2's slab holds its upper half.
	onCut := mid(sm.Cuts[1])
	if s := sm.route(sm.Cuts[1]-0.05, sm.Cuts[1]+0.05); !reflect.DeepEqual(s, []int{1}) {
		t.Fatalf("route across cut 1 = %v, want [1]", s)
	}
	across, err := c.Range(ctx, "d", onCut, 0.05, "")
	if err != nil {
		t.Fatalf("range across cut 1 with shard 1 down: %v", err)
	}
	if !failedOn1(across.Scatter) || across.Shards != 2 {
		t.Fatalf("range across cut 1 = %+v, want partial, 2 shards asked, shard 1 failed", across.Scatter)
	}
	wantIdx := []int{}
	for _, i := range jointest.Range(live, onCut, 0.05) {
		wantIdx = append(wantIdx, liveIdx[i])
	}
	if !reflect.DeepEqual(across.Indexes, wantIdx) {
		t.Fatalf("partial range = %v, want the live shards' %v", across.Indexes, wantIdx)
	}

	_, err = c.Range(ctx, "d", inside, 0.02, "")
	var ue UnavailableError
	if !errors.As(err, &ue) || len(ue.Failed) != 1 || ue.Failed[0].Shard != 1 {
		t.Fatalf("range inside the dead shard: err = %v, want UnavailableError naming shard 1", err)
	}
}

// TestNaNMarginIsRefused: a NaN margin would store no point on its own
// shard (x < cut+NaN never holds), so the coordinator takes the default
// for a NaN default and refuses a NaN upload margin.
func TestNaNMarginIsRefused(t *testing.T) {
	if m := New(testURLs(2), math.NaN(), nil).Margin(); m != DefaultMargin {
		t.Errorf("New with a NaN margin: margin %g, want %g", m, DefaultMargin)
	}
	c, _, _ := newTestCluster(t, 2, 0.1)
	var qe QueryError
	if _, err := c.Upload(context.Background(), "d", jointest.UniformPoints(20, 2, 22), math.NaN()); !errors.As(err, &qe) {
		t.Errorf("upload with a NaN margin: err = %v, want QueryError", err)
	}
}
