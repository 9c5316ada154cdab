package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/dataset"
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

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
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
		pairs := [][2]int{}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if l2(pts[i], pts[j]) <= q.Eps {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		json.NewEncoder(w).Encode(map[string]any{"pairs": pairs})
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
		idx := []int{}
		for i, p := range pts {
			if l2(p, q.Point) <= q.Radius {
				idx = append(idx, i)
			}
		}
		json.NewEncoder(w).Encode(map[string]any{"indexes": idx})
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
		nbrs := make([]api.Neighbor, 0, len(pts))
		for i, p := range pts {
			nbrs = append(nbrs, api.Neighbor{Index: i, Dist: l2(p, q.Point)})
		}
		sort.Slice(nbrs, func(a, b int) bool {
			if nbrs[a].Dist != nbrs[b].Dist {
				return nbrs[a].Dist < nbrs[b].Dist
			}
			return nbrs[a].Index < nbrs[b].Index
		})
		if len(nbrs) > q.K {
			nbrs = nbrs[:q.K]
		}
		json.NewEncoder(w).Encode(map[string]any{"neighbors": nbrs})
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

// brutePairs is the single-node oracle: every pair within eps, (i, j)
// sorted.
func brutePairs(pts [][]float64, eps float64) [][2]int {
	out := [][2]int{}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if l2(pts[i], pts[j]) <= eps {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func TestDistributedSelfJoinMatchesSingleNode(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 0.15)
	pts := randomPoints(300, 4, 42)
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
	want := brutePairs(pts, 0.12)
	if !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("distributed pairs differ from single-node: got %d pairs, want %d", len(res.Pairs), len(want))
	}
	if res.Shards < 2 {
		t.Fatalf("join only touched %d shards — partitioning is broken", res.Shards)
	}
}

func TestSelfJoinPartialWhenWorkerDies(t *testing.T) {
	c, servers, _ := newTestCluster(t, 3, 0.15)
	pts := randomPoints(200, 3, 7)
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
	pts := randomPoints(150, 3, 9)
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
	if want := brutePairs(pts, 0.1); !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("pairs differ after retry: got %d, want %d", len(res.Pairs), len(want))
	}
}

func TestSelfJoinAllShardsDown(t *testing.T) {
	c, servers, _ := newTestCluster(t, 2, 0.15)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "d", randomPoints(50, 2, 11), 0); err != nil {
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
	if _, err := c.Upload(ctx, "d", randomPoints(50, 2, 12), 0); err != nil {
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
	pts := randomPoints(250, 3, 13)
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
	want := []int{}
	for i, p := range pts {
		if l2(p, q) <= radius {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(res.Indexes, want) {
		t.Fatalf("range indexes = %v, want %v", res.Indexes, want)
	}
}

func TestKNNMatchesSingleNode(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 0.1)
	pts := randomPoints(250, 3, 14)
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
	all := make([]api.Neighbor, 0, len(pts))
	for i, p := range pts {
		all = append(all, api.Neighbor{Index: i, Dist: l2(p, q)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
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
	if _, err := c.Upload(ctx, "d", randomPoints(20, 2, 15), 0); err != nil {
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
	if _, err := c.Upload(ctx, "d", randomPoints(60, 2, 16), 0); err != nil {
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
	_, err := c.Upload(ctx, "d", randomPoints(100, 2, 17), 0)
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
