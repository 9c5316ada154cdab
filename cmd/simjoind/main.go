// Command simjoind serves similarity joins and neighbor queries over HTTP.
//
// Worker mode (the default) owns datasets in memory, uploaded (JSON or
// CSV) and queried by name:
//
//	simjoind -addr :8080 [-data dir] [-load name=path ...]
//
// The REST surface — dataset upload/append/delete, self- and two-set
// joins (collected or NDJSON-streamed), range and KNN queries, standing
// watch queries, EXPLAIN, /healthz, /metrics and the /debug routes — is
// the route table in internal/api's package comment, which also names
// every request and answer type.
//
// -data <dir> makes the datasets durable: every PUT/append/DELETE tees
// through a snapshot+WAL storage engine (internal/store, see
// docs/STORE.md) and a restarted worker replays the directory back to
// its exact pre-crash state. -fsync picks the WAL sync policy (always /
// never / an interval), -compact-bytes the WAL size that triggers
// snapshot compaction, and -max-body-bytes the upload size cap.
//
// Every worker dataset carries a resident join-size sketch
// (docs/ESTIMATION.md), built on upload, load or recovery and fed by
// every append. It prices each join before it runs — the answer's
// estimated_pairs and the -max-pairs admission budget (429, or a
// counting-only run on request) — and answers EXPLAIN and ?eps=
// estimates without touching the points. There is no switch for it.
//
// -debug additionally mounts net/http/pprof under /debug/pprof/ in
// either mode.
//
// Coordinator mode fronts a fleet of workers and serves the same API by
// scatter-gather, sharding each upload across the fleet with ε-boundary
// replication (see docs/CLUSTER.md):
//
//	simjoind -addr :8080 -workers http://w1:8081,http://w2:8082 [-margin 0.25]
//
// Gateway mode mounts the multi-tenant front door (internal/gateway,
// see docs/GATEWAY.md) over one backend — a coordinator, which spreads
// the data over its workers, or a single worker: API-key tenants with
// rate limits, fair queuing and estimate-priced shedding, plus A/B
// experiment routing with shadow traffic:
//
//	simjoind -addr :8080 -gateway -backends http://coord:8081 -tenants tenants.json
//
// The -tenants config hot-reloads on SIGHUP and whenever the file's
// mtime changes.
//
// -version prints the binary's build identity block (the /healthz
// "build" object) and exits.
//
// Every response is JSON (internal/api's package comment is the wire
// reference); errors carry {"error": "…"} with a 4xx/5xx status. The
// server logs one structured JSON line per request to stderr (method,
// route, status, bytes, duration, trace_id) and shuts down gracefully on
// SIGINT/SIGTERM.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simjoin"
	"simjoin/internal/cluster"
	"simjoin/internal/store"
)

// loadFlags collects repeated -load name=path arguments.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main minus the exit: every fatal path logs a structured error
// and returns a non-zero code instead of calling log.Fatal, so the
// daemon has exactly one exit point and tests could drive it.
func run(argv []string) int {
	fs := flag.NewFlagSet("simjoind", flag.ExitOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.String("workers", "", "comma-separated worker base URLs; enables coordinator mode")
		margin       = fs.Float64("margin", cluster.DefaultMargin, "coordinator: ε-boundary replication width for uploads (max exact self-join eps)")
		debug        = fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		dataDir      = fs.String("data", "", "durable storage directory (worker mode); empty = in-memory only")
		fsyncFlag    = fs.String("fsync", "always", `WAL fsync policy: "always", "never", or an interval like "100ms"`)
		compactBytes = fs.Int64("compact-bytes", store.DefaultCompactBytes, "WAL size that triggers snapshot compaction (negative disables)")
		maxBody      = fs.Int64("max-body-bytes", defaultMaxBodyBytes, "largest accepted request body in bytes")
		maxPairs     = fs.Int64("max-pairs", 0, "admission budget: reject (429) or, on request, degrade join queries whose estimated result size exceeds this many pairs (0 = unlimited)")
		gatewayMode  = fs.Bool("gateway", false, "gateway mode: multi-tenant front door over -backends (see docs/GATEWAY.md)")
		backends     = fs.String("backends", "", "the one backend base URL -gateway fronts: a coordinator (put -workers on it to front a fleet) or a worker")
		tenants      = fs.String("tenants", "", "gateway tenancy + experiment config (JSON); hot-reloaded on SIGHUP and file change")
		version      = fs.Bool("version", false, "print the build identity block (the /healthz build object) and exit")
		loads        loadFlags
	)
	fs.Var(&loads, "load", "preload a dataset: name=path (repeatable; worker mode only)")
	_ = fs.Parse(argv)

	if *version {
		out, err := json.MarshalIndent(buildVersion, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *maxBody < 1 {
		logger.Error("-max-body-bytes must be positive", "value", *maxBody)
		return 2
	}

	var h http.Handler
	// onStop runs at the start of graceful shutdown, before the HTTP
	// drain: it terminates long-lived watch streams with a terminal
	// NDJSON event so the drain isn't held open by standing queries.
	var onStop func()
	switch {
	case *gatewayMode:
		if *workers != "" {
			logger.Error("-gateway and -workers are mutually exclusive; point -backends at the coordinator instead")
			return 2
		}
		gh, gwStop, err := startGateway(logger, *backends, *tenants, *maxBody)
		if err != nil {
			logger.Error("starting gateway", "error", err)
			return 2
		}
		h = gh
		onStop = gwStop
		logger.Info("simjoind gatewaying", "addr", *addr, "tenants", *tenants)
	case *workers != "":
		if len(loads) > 0 {
			logger.Error("-load is not supported in coordinator mode; load data on the workers or upload through the coordinator")
			return 2
		}
		if *dataDir != "" {
			logger.Error("-data is not supported in coordinator mode; the coordinator is stateless — persist on the workers")
			return 2
		}
		urls, err := parseWorkers(*workers)
		if err != nil {
			logger.Error("parsing -workers", "error", err)
			return 2
		}
		cs := newCoordServer(cluster.New(urls, *margin, nil))
		cs.debug = *debug
		cs.log = logger
		cs.maxBody = *maxBody
		cs.maxPairs = *maxPairs
		h = cs.handler()
		onStop = cs.shutdownWatches
		logger.Info("simjoind coordinating", "workers", len(urls), "addr", *addr, "margin", *margin)
	default:
		srv := newServer()
		srv.debug = *debug
		srv.log = logger
		srv.maxBody = *maxBody
		srv.maxPairs = *maxPairs
		if *dataDir != "" {
			mode, interval, err := store.ParseSync(*fsyncFlag)
			if err != nil {
				logger.Error("parsing -fsync", "error", err)
				return 2
			}
			cat, err := store.Open(*dataDir, store.Options{
				Sync:         mode,
				SyncInterval: interval,
				CompactBytes: *compactBytes,
				Hooks:        storeHooks(srv.m),
			})
			if err != nil {
				logger.Error("opening data directory", "dir", *dataDir, "error", err)
				return 1
			}
			defer cat.Close()
			srv.attachStore(cat)
			logRecovery(logger, *dataDir, cat.Recovery())
		}
		for _, spec := range loads {
			name, path, ok := strings.Cut(spec, "=")
			if !ok {
				logger.Error("bad -load flag: want name=path", "flag", spec)
				return 2
			}
			ds, err := simjoin.Load(path)
			if err != nil {
				logger.Error("loading dataset", "path", path, "error", err)
				return 1
			}
			if srv.st != nil {
				if err := srv.st.Put(context.Background(), name, ds.Internal()); err != nil {
					logger.Error("persisting preloaded dataset", "name", name, "error", err)
					return 1
				}
			}
			srv.sets[name] = newEntry(ds)
			logger.Info("loaded dataset", "name", name, "points", ds.Len(), "dims", ds.Dims())
		}
		h = srv.handler()
		onStop = srv.live.Shutdown
		logger.Info("simjoind listening", "addr", *addr, "data", *dataDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, *addr, h, onStop); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", "error", err)
		return 1
	}
	return 0
}

// parseWorkers splits the -workers list into normalized base URLs.
func parseWorkers(s string) ([]string, error) {
	var out []string
	for _, w := range strings.Split(s, ",") {
		w = strings.TrimSuffix(strings.TrimSpace(w), "/")
		if w == "" {
			continue
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers lists no URLs")
	}
	return out, nil
}

// serve runs a hardened http.Server until ctx is cancelled (SIGINT or
// SIGTERM), then drains in-flight requests before returning. onStop,
// when non-nil, runs first so long-lived streams (standing-query
// watches) terminate cleanly instead of blocking the drain.
func serve(ctx context.Context, addr string, h http.Handler, onStop func()) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		if onStop != nil {
			onStop()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}
