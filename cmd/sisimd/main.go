// Command sisimd serves the subwarp-interleaving simulator over HTTP:
// a bounded worker pool, a content-addressed result cache, per-job
// timeouts, and graceful draining on SIGTERM/SIGINT.
//
//	sisimd -addr :8477 -workers 4 -cache-dir /var/cache/sisim
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/apps,
// POST /v1/jobs, POST /v1/batch, POST /v1/submit. See README
// "Serving" and "Submitting kernels"; the -tenant-* flags configure
// per-tenant rate limits, quotas, and weighted-fair scheduling keyed
// by the X-Tenant request header.
//
// With -peers (or -coordinator) the daemon fronts a cluster instead:
// submissions are consistent-hashed by content key across the listed
// worker daemons so each key's results stay hot in one node's memory
// cache, with per-peer circuit breakers, batch scatter-gather with
// work stealing, and local single-node fallback when every peer is
// down. See README "Running a cluster".
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"subwarpsim/internal/cluster"
	"subwarpsim/internal/faults"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sisimd:", err)
	os.Exit(1)
}

// parseWeights parses "gold=4,silver=2" into the weighted-fair dequeue
// share map; an empty spec means every tenant weighs 1.
func parseWeights(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad entry %q (want tenant=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want a positive integer)", val, name)
		}
		weights[name] = w
	}
	return weights, nil
}

// buildLogger constructs the daemon's structured logger on stderr
// (stdout stays reserved for the parseable startup lines).
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return obs.NopLogger(), nil
	default:
		return nil, fmt.Errorf("bad -log-level %q (debug, info, warn, error, off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8477", "listen address (host:port, port 0 picks one)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued-job bound before submissions get 429")
	simWorkers := flag.Int("sim-workers", 0, "SM goroutines per simulation (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 4096, "in-memory result cache entries")
	cacheDir := flag.String("cache-dir", "", "persist results in this directory instead of memory")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job simulation timeout")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "upper clamp on requested job timeouts")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for in-flight jobs")
	faultSpec := flag.String("faults", "", "deterministic fault-injection spec (overrides SISIM_FAULTS)")
	cacheRetries := flag.Int("cache-retries", 2, "retries for transient disk-cache errors (-1 disables)")
	breakerTrip := flag.Int("breaker-trip", 5, "consecutive disk-cache failures that trip the memory-only breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a recovery probe")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant submissions per second (token bucket; 0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = 1 when -tenant-rate is set)")
	tenantQueued := flag.Int("tenant-queued", 0, "per-tenant queued-job quota (0 = unlimited)")
	tenantInFlight := flag.Int("tenant-inflight", 0, "per-tenant concurrently-running quota (0 = unlimited)")
	tenantWeights := flag.String("tenant-weights", "", "weighted-fair dequeue shares, e.g. gold=4,silver=2 (unlisted tenants weigh 1)")
	submitMaxCycles := flag.Int64("submit-max-cycles", 0, "hard cap on a submission's cycle budget (0 = built-in 20M)")
	submitMaxInstrs := flag.Int64("submit-max-instrs", 0, "hard cap on a submission's instruction budget (0 = built-in 100M)")
	submitMaxMem := flag.Int64("submit-max-mem", 0, "hard cap on a submission's memory footprint in bytes (0 = built-in 64MiB)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator over -peers instead of simulating locally")
	peersFlag := flag.String("peers", "", "comma-separated worker base URLs (http://host:port); implies -coordinator")
	advertise := flag.String("advertise", "", "coordinator's advertised name in GET /cluster and logs (default \"coordinator\")")
	hedgeAfter := flag.Duration("hedge-after", 0, "duplicate a routed request to the next ring node if the home peer hasn't answered within this duration (0 = off)")
	peerWindow := flag.Int("peer-window", 4, "per-peer in-flight window for batch scatter-gather")
	ringVNodes := flag.Int("ring-vnodes", 64, "virtual nodes per peer on the consistent-hash ring")
	ringLoad := flag.Float64("ring-load-factor", 1.25, "bounded-load factor: a peer loaded past ceil(factor*(inflight+1)/alive) yields hot keys to ring successors")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
	eventRing := flag.Int("events", 256, "debug-event ring size (GET /debug/events)")
	traceKeep := flag.Int("traces", 64, "completed request traces retained (GET /debug/traces)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Printf("sisimd %s\n", obs.Build())
		return
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fail(err)
	}
	slog.SetDefault(logger)

	injector, err := faults.Parse(*faultSpec)
	if err != nil {
		fail(err)
	}
	if injector == nil {
		if injector, err = faults.FromEnv(); err != nil {
			fail(err)
		}
	}
	// The disk cache (when configured) sits behind the resilience
	// layer: transient errors retry, a dead disk trips the breaker and
	// the daemon keeps serving memory-only (degraded, never wrong).
	var cache simcache.Cache
	if *cacheDir != "" {
		d := simcache.NewDisk(*cacheDir)
		d.Faults = injector
		cache = simcache.NewResilient(d, simcache.ResilientOptions{
			Retries:       *cacheRetries,
			TripAfter:     *breakerTrip,
			Cooldown:      *breakerCooldown,
			MemoryEntries: *cacheEntries,
		})
	} else {
		cache = simcache.NewMemory(*cacheEntries)
	}

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fail(fmt.Errorf("-tenant-weights: %w", err))
	}

	observer := obs.New(server.MetricsNamespace, *eventRing, *traceKeep, logger)
	srv := server.New(server.Options{
		Workers:           *workers,
		QueueDepth:        *queue,
		SimWorkers:        *simWorkers,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Cache:             cache,
		Faults:            injector,
		Obs:               observer,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		TenantMaxQueued:   *tenantQueued,
		TenantMaxInFlight: *tenantInFlight,
		TenantWeights:     weights,
		MaxBudget: sm.Budget{
			MaxCycles:   *submitMaxCycles,
			MaxInstrs:   *submitMaxInstrs,
			MaxMemBytes: *submitMaxMem,
		},
	})

	// Coordinator mode: the same daemon binary fronts a ring of worker
	// daemons, sharing the local server's Observer so /metrics and
	// /debug/traces unify routing and execution. The local server stays
	// fully functional underneath — it is the single-node fallback when
	// every peer is down.
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if *coordinator && len(peers) == 0 {
		fail(fmt.Errorf("-coordinator requires -peers"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// Profiling endpoints are opt-in: they leak internals (goroutine
	// stacks, heap contents), so the flag keeps them off any daemon that
	// didn't explicitly ask. The handlers are registered on a wrapping
	// mux rather than via net/http/pprof's DefaultServeMux side effect.
	handler := srv.Handler()
	if len(peers) > 0 {
		co, err := cluster.New(cluster.Options{
			Self:       *advertise,
			Peers:      peers,
			Local:      srv,
			Obs:        observer,
			VNodes:     *ringVNodes,
			LoadFactor: *ringLoad,
			Window:     *peerWindow,
			HedgeAfter: *hedgeAfter,
			TripAfter:  *breakerTrip,
			Cooldown:   *breakerCooldown,
		})
		if err != nil {
			fail(err)
		}
		handler = co.Handler()
	}
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}

	// The smoke test and scripts parse this line for the bound port.
	fmt.Printf("sisimd listening on %s\n", ln.Addr())
	if len(peers) > 0 {
		fmt.Printf("sisimd: coordinating %d peers: %s\n", len(peers), strings.Join(peers, ", "))
	}
	if injector != nil {
		fmt.Printf("sisimd: fault injection active: %s\n", injector)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Printf("sisimd: %v, draining\n", sig)
	case err := <-errc:
		fail(err)
	}

	// Stop accepting connections, then finish queued and in-flight jobs
	// within the drain budget; jobs still running after it are
	// cancelled via their contexts.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sisimd: shutdown:", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sisimd:", err)
		os.Exit(1)
	}
	fmt.Println("sisimd: drained cleanly")
}
