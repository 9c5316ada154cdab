package gateway

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"simjoin/internal/obsv"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/rclient"
)

// DefaultMaxBodyBytes bounds the join/query request bodies the gateway
// buffers for inspection (experiment override injection, pricing).
// Upload bodies are never buffered — they stream through — so this only
// needs to fit query parameter objects.
const DefaultMaxBodyBytes = 1 << 20

// DefaultQueueSlots is the global concurrent-query admission cap when
// Options.QueueSlots is zero.
const DefaultQueueSlots = 64

// Options configures New.
type Options struct {
	// Backend is the base URL of the one tier the gateway fronts: a
	// coordinator, or a single worker.
	Backend string
	// Client is the retrying HTTP client for gateway-internal calls
	// (pricing, health, trace stitching); nil gets a default.
	Client *rclient.Client
	// Logger, when non-nil, receives one access-log line per request.
	Logger *slog.Logger
	// Tracer retains completed gateway traces; nil gets a default ring.
	Tracer *trace.Tracer
	// MaxBody bounds buffered query bodies (DefaultMaxBodyBytes if 0).
	MaxBody int64
	// QueueSlots caps globally concurrent proxied queries
	// (DefaultQueueSlots if 0; < 0 = unlimited).
	QueueSlots int
	// ShadowWorkers bounds concurrently running shadow requests
	// (defaultShadowWorkers if 0).
	ShadowWorkers int
	// Build is the binary identity block reported by /healthz.
	Build any
}

// tenantRT is one tenant's runtime state. It outlives config reloads:
// a reload updates limits in place (never replaces the object), so
// requests already admitted under the old limits release cleanly and
// bucket fill / fair-queue clocks survive the swap.
type tenantRT struct {
	name   string
	bucket *bucket

	// maxPairs is the admission budget, swapped atomically on reload.
	maxPairs atomic.Int64

	// The fields below are guarded by the gateway fair queue's mutex.
	inflight    int
	maxInFlight int
	weight      float64
	lastTag     float64
}

// tryAdmit counts the request against the tenant's in-flight cap.
// Called under the fair queue's lock.
func (rt *tenantRT) tryAdmit() bool {
	if rt.maxInFlight > 0 && rt.inflight >= rt.maxInFlight {
		return false
	}
	rt.inflight++
	return true
}

// leave undoes tryAdmit. Called under the fair queue's lock.
func (rt *tenantRT) leave() { rt.inflight-- }

// nextTag stamps a queued request with the tenant's next virtual finish
// time. Called under the fair queue's lock.
func (rt *tenantRT) nextTag(vnow float64) float64 {
	w := rt.weight
	if w <= 0 {
		w = 1
	}
	start := rt.lastTag
	if vnow > start {
		start = vnow
	}
	rt.lastTag = start + 1/w
	return rt.lastTag
}

// Gateway is the multi-tenant reverse proxy. Create with New, serve
// Handler().
type Gateway struct {
	backend string
	rc      *rclient.Client
	log     *slog.Logger
	tracer  *trace.Tracer
	qlog    *querylog.Log
	m       *gwMetrics
	queue   *fairQueue
	differ  *differ
	maxBody int64
	build   any

	// cfgMu guards the key→tenant index, the name→tenant index and the
	// experiment list; all three are swapped together on reload.
	cfgMu   sync.RWMutex
	byKey   map[string]*tenantRT
	byName  map[string]*tenantRT
	exps    []Experiment
	reloads atomic.Int64

	// cfgPath is the file Reload re-reads for file-backed configs.
	pathMu  sync.Mutex
	cfgPath string
}

// New returns a gateway over the given backend with an empty tenant
// set; install one with SetConfig or LoadConfigFile before serving.
func New(opts Options) (*Gateway, error) {
	if opts.Backend == "" {
		return nil, fmt.Errorf("gateway needs a backend")
	}
	g := &Gateway{
		backend: opts.Backend,
		rc:      opts.Client,
		log:     opts.Logger,
		tracer:  opts.Tracer,
		qlog:    querylog.New(0),
		maxBody: opts.MaxBody,
		build:   opts.Build,
		byKey:   map[string]*tenantRT{},
		byName:  map[string]*tenantRT{},
	}
	if g.rc == nil {
		g.rc = rclient.New()
	}
	if g.tracer == nil {
		g.tracer = trace.New(128)
	}
	if g.maxBody <= 0 {
		g.maxBody = DefaultMaxBodyBytes
	}
	slots := opts.QueueSlots
	if slots == 0 {
		slots = DefaultQueueSlots
	}
	g.queue = newFairQueue(slots)
	g.m = newGWMetrics(g)
	g.differ = newDiffer(g, opts.ShadowWorkers)
	return g, nil
}

// Registry exposes the gateway's metric registry (the /metrics payload).
func (g *Gateway) Registry() *obsv.Registry { return g.m.reg }

// Journal exposes the gateway's query journal (shed and mismatched
// requests), served at /debug/queries.
func (g *Gateway) Journal() *querylog.Log { return g.qlog }

// Reloads reports how many config swaps have been applied.
func (g *Gateway) Reloads() int64 { return g.reloads.Load() }

// SetConfig atomically swaps the tenant and experiment config. Tenants
// whose name survives keep their runtime state (bucket fill, in-flight
// count, fair-queue clock) with the new limits applied in place;
// requests in flight under a removed tenant finish normally — only new
// requests see the new key set.
func (g *Gateway) SetConfig(cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	byKey := make(map[string]*tenantRT, len(cfg.Tenants))
	byName := make(map[string]*tenantRT, len(cfg.Tenants))

	g.cfgMu.Lock()
	for _, t := range cfg.Tenants {
		rt := g.byName[t.Name]
		if rt == nil {
			rt = &tenantRT{name: t.Name, bucket: newBucket(t.RatePerSec, t.Burst)}
		} else {
			rt.bucket.setLimits(t.RatePerSec, t.Burst)
		}
		rt.maxPairs.Store(t.MaxPairs)
		// In-flight counts and fair-queue clocks live under the queue
		// lock; update the limits there so admission never reads a
		// half-applied tenant.
		g.queue.mu.Lock()
		rt.maxInFlight = t.MaxInFlight
		rt.weight = t.Weight
		g.queue.mu.Unlock()
		byKey[t.Key] = rt
		byName[t.Name] = rt
	}
	g.byKey = byKey
	g.byName = byName
	g.exps = append([]Experiment(nil), cfg.Experiments...)
	g.cfgMu.Unlock()
	g.reloads.Add(1)
	return nil
}

// LoadConfigFile loads, validates and installs a config file, and
// remembers the path for Reload.
func (g *Gateway) LoadConfigFile(path string) error {
	cfg, err := LoadConfig(path)
	if err != nil {
		return err
	}
	if err := g.SetConfig(cfg); err != nil {
		return err
	}
	g.pathMu.Lock()
	g.cfgPath = path
	g.pathMu.Unlock()
	return nil
}

// Reload re-reads the config file installed by LoadConfigFile. A
// parse or validation failure leaves the running config untouched.
func (g *Gateway) Reload() error {
	g.pathMu.Lock()
	path := g.cfgPath
	g.pathMu.Unlock()
	if path == "" {
		return fmt.Errorf("no config file to reload")
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		return err
	}
	return g.SetConfig(cfg)
}

// lookup resolves an API key to its tenant.
func (g *Gateway) lookup(key string) (*tenantRT, bool) {
	if key == "" {
		return nil, false
	}
	g.cfgMu.RLock()
	rt, ok := g.byKey[key]
	g.cfgMu.RUnlock()
	return rt, ok
}

// tenantCount reports the configured tenant count.
func (g *Gateway) tenantCount() int {
	g.cfgMu.RLock()
	defer g.cfgMu.RUnlock()
	return len(g.byName)
}

// experiments snapshots the current rule list.
func (g *Gateway) experiments() []Experiment {
	g.cfgMu.RLock()
	defer g.cfgMu.RUnlock()
	return g.exps
}

// ShadowDrain blocks until every in-flight shadow request has finished
// diffing — test and shutdown hygiene so async work is not lost.
func (g *Gateway) ShadowDrain() { g.differ.wg.Wait() }
