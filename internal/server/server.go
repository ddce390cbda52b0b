// Package server implements the sisimd simulation service: a bounded
// worker pool running simulation jobs behind an HTTP API, with a
// content-addressed result cache (internal/simcache), in-flight
// deduplication (singleflight), per-job timeouts, client cancellation,
// queue backpressure, and graceful draining.
//
// The serving model relies on the simulator's determinism contract: a
// job's result is a pure function of its (config, program, workload)
// content hash, so a cached or coalesced result is bit-identical to
// the result a fresh simulation would produce.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/config"
	"subwarpsim/internal/faults"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// Options tunes the service.
type Options struct {
	// Workers is the simulation worker pool size (concurrent jobs);
	// 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond
	// it are rejected with 429. 0 means 64.
	QueueDepth int
	// SimWorkers bounds per-simulation SM goroutines (gpu.RunContext's
	// workers argument); 0 means GOMAXPROCS.
	SimWorkers int
	// DefaultTimeout bounds jobs that do not request a timeout;
	// 0 means 2 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout clamps requested timeouts; 0 means 10 minutes.
	MaxTimeout time.Duration
	// Cache stores results by content address; nil means an in-memory
	// LRU of 4096 entries.
	Cache simcache.Cache
	// MaxBatch bounds jobs per batch request; 0 means 256.
	MaxBatch int
	// Faults optionally injects deterministic failures at the server's
	// sites (admission, execution, batch) and is threaded into every
	// job's config so the per-SM site fires too; nil injects nothing.
	Faults *faults.Injector
	// Obs is the observability plane: metric registry, request tracing,
	// debug-event ring, structured logging. nil means a fresh Observer
	// with a discard logger — the serving layer is always observable,
	// logging is opt-in.
	Obs *obs.Observer

	// TenantRate and TenantBurst configure the per-tenant token-bucket
	// submission limiter: each tenant accrues TenantRate tokens per
	// second up to TenantBurst, and each submission (any endpoint)
	// spends one. TenantRate 0 (the default) disables rate limiting.
	TenantRate  float64
	TenantBurst int
	// TenantMaxQueued bounds one tenant's jobs waiting in the queue;
	// TenantMaxInFlight bounds one tenant's jobs concurrently on
	// workers. 0 means unlimited (per-tenant; the global QueueDepth
	// and Workers bounds always apply).
	TenantMaxQueued   int
	TenantMaxInFlight int
	// TenantWeights sets per-tenant weighted-fair dequeue shares;
	// unlisted tenants get weight 1.
	TenantWeights map[string]int

	// SubmitLimits bounds what /v1/submit kernels may declare; the
	// zero value means admission.DefaultLimits. The footprint field is
	// overridden per submission by its memory budget.
	SubmitLimits admission.Limits
	// DefaultBudget is the gas budget applied to submissions that do
	// not request one; MaxBudget clamps what they may request. Zero
	// fields take built-in defaults (withDefaults), so submissions are
	// always fully metered.
	DefaultBudget sm.Budget
	MaxBudget     sm.Budget
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.Cache == nil {
		o.Cache = simcache.NewMemory(4096)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Obs == nil {
		o.Obs = obs.New(MetricsNamespace, 256, 64, nil)
	}
	if o.MaxBudget.MaxCycles <= 0 {
		o.MaxBudget.MaxCycles = 20_000_000
	}
	if o.MaxBudget.MaxInstrs <= 0 {
		o.MaxBudget.MaxInstrs = 100_000_000
	}
	if o.MaxBudget.MaxMemBytes <= 0 {
		o.MaxBudget.MaxMemBytes = 64 << 20
	}
	if o.DefaultBudget.MaxCycles <= 0 {
		o.DefaultBudget.MaxCycles = 2_000_000
	}
	if o.DefaultBudget.MaxInstrs <= 0 {
		o.DefaultBudget.MaxInstrs = 8_000_000
	}
	if o.DefaultBudget.MaxMemBytes <= 0 {
		o.DefaultBudget.MaxMemBytes = 8 << 20
	}
	return o
}

// flight is one in-flight simulation shared by every request that
// asked for the same content hash (singleflight). The flight owns a
// cancellable context; it is cancelled early when every waiter has
// gone away, so abandoned work stops promptly.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed after entry/err are set

	entry simcache.Entry
	err   error

	waiters int // guarded by Server.mu; 0 after completion
}

// task is one queued simulation.
type task struct {
	fl       *flight
	key      simcache.Key
	cfg      config.Config
	kernel   *sm.Kernel
	workload string    // spec.WorkloadID(), for per-workload SI roll-ups
	tenant   string    // canonical tenant, for fair dequeue and quota release
	enqueued time.Time // queue-wait measurement start
}

// Server is the simulation service. Create with New, serve Handler(),
// and stop with Drain.
type Server struct {
	opts  Options
	cache simcache.Cache
	queue *fairQueue
	start time.Time

	// tenantNames canonicalizes (and bounds) tenant identities;
	// limiter is the per-tenant token-bucket submission rate limiter.
	tenantNames *tenantSet
	limiter     *tenantLimiter

	baseCtx    context.Context // parent of every job context
	cancelBase context.CancelFunc

	workerWG sync.WaitGroup // worker goroutines
	taskWG   sync.WaitGroup // enqueued-but-unfinished tasks
	draining atomic.Bool

	mu         sync.Mutex
	flights    map[simcache.Key]*flight
	quarantine map[simcache.Key]string // keys whose simulation panicked -> reason

	jobsTotal  atomic.Int64 // accepted submissions (incl. hits and coalesced)
	jobsDone   atomic.Int64 // simulations completed successfully
	jobsFailed atomic.Int64 // simulations that returned an error
	rejected   atomic.Int64 // 429s from queue backpressure
	coalesced  atomic.Int64 // submissions that joined an in-flight twin
	inFlight   atomic.Int64 // simulations currently on a worker
	panics     atomic.Int64 // simulations that panicked (recovered + quarantined)
	quarHits   atomic.Int64 // submissions rejected because their key is quarantined
	simCycles  atomic.Int64 // simulated cycles across completed simulations
	simBusyNS  atomic.Int64 // wall time workers spent simulating successfully

	rateLimited atomic.Int64 // 429s from the per-tenant token bucket

	// admRejects and budgetKills are pre-registered labeled counters:
	// admission rejects by structured reason, budget kills by
	// exhausted resource (registerMetrics).
	admRejects  map[string]*obs.Counter
	budgetKills map[string]*obs.Counter

	latMu   sync.Mutex
	latency stats.Histogram // microseconds per completed simulation

	// obs is the observability plane (never nil after New); si holds
	// the pre-registered SI roll-up instruments.
	obs *obs.Observer
	si  siMetrics

	// runSim performs one simulation; tests substitute a fake to drive
	// backpressure and cancellation deterministically.
	runSim func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error)
}

// New starts a server's worker pool and returns it.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:  opts,
		cache: opts.Cache,
		queue: newFairQueue(opts.QueueDepth, opts.TenantMaxQueued,
			opts.TenantMaxInFlight, opts.TenantWeights),
		start:       time.Now(),
		tenantNames: newTenantSet(),
		limiter:     newTenantLimiter(opts.TenantRate, opts.TenantBurst),
		baseCtx:     ctx,
		cancelBase:  cancel,
		flights:     make(map[simcache.Key]*flight),
		quarantine:  make(map[simcache.Key]string),
		obs:         opts.Obs,
	}
	s.latency.Name = "job latency (us)"
	s.runSim = func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error) {
		return gpu.RunContext(ctx, cfg, k, opts.SimWorkers)
	}
	s.registerMetrics()
	s.wireHooks()
	for i := 0; i < opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		t, ok := s.queue.pop()
		if !ok {
			return
		}
		s.inFlight.Add(1)
		started := time.Now()
		tr := obs.TraceFrom(t.fl.ctx)
		tr.AddSpan("queue", t.enqueued, started)
		s.obs.ObserveStage("queue", started.Sub(t.enqueued).Microseconds())
		res, err := s.runJob(t)
		ended := time.Now()
		elapsed := ended.Sub(started)
		tr.AddSpan("exec", started, ended)
		s.obs.ObserveStage("exec", elapsed.Microseconds())
		s.inFlight.Add(-1)

		var entry simcache.Entry
		if err == nil {
			entry = simcache.Entry{
				Policy:   res.Config.PolicyName(),
				Blocks:   res.Blocks,
				Counters: res.Counters,
			}
			s.cache.Put(t.key, entry)
			s.jobsDone.Add(1)
			s.simCycles.Add(res.Counters.Cycles)
			s.simBusyNS.Add(elapsed.Nanoseconds())
			s.latMu.Lock()
			s.latency.Observe(elapsed.Microseconds())
			s.latMu.Unlock()
			s.siRollup(t.workload, res.Counters)
			s.obs.Logger().Info("simulation complete",
				"trace_id", obs.TraceIDFrom(t.fl.ctx), "key", t.key.String(),
				"workload", t.workload, "cycles", res.Counters.Cycles,
				"elapsed_ms", float64(elapsed.Microseconds())/1e3)
		} else {
			s.jobsFailed.Add(1)
			var be *sm.BudgetError
			if errors.As(err, &be) {
				// A budget kill is a deterministic, well-defined outcome
				// (same key always dies at the same point), not a simulator
				// defect: count it by resource, no quarantine.
				if c := s.budgetKills[be.Resource]; c != nil {
					c.Inc()
				}
			} else if msg, panicked := panicMessage(err); panicked {
				// A panic means the simulator hit a state it cannot handle
				// for this exact (config, program, workload): quarantine the
				// key so repeats are refused up front instead of burning a
				// worker on a known-bad input again.
				s.panics.Add(1)
				s.mu.Lock()
				s.quarantine[t.key] = msg
				s.mu.Unlock()
				s.obs.Event(t.fl.ctx, obs.EventQuarantine, faults.SiteServerExec,
					"key "+t.key.String()+": "+msg)
			}
			s.obs.Logger().Warn("simulation failed",
				"trace_id", obs.TraceIDFrom(t.fl.ctx), "key", t.key.String(),
				"workload", t.workload, "error", err)
		}
		s.complete(t.key, t.fl, entry, err)
		s.queue.release(t.tenant)
		s.taskWG.Done()
	}
}

// runJob performs one simulation behind a panic barrier, so a
// panicking job fails its waiters instead of killing the worker pool.
// gpu.RunContext already recovers per-SM panics into *gpu.PanicError;
// the recover here catches panics from everything else on the job
// path (and from test/chaos runSim fakes).
func (s *Server) runJob(t task) (res gpu.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{value: v, stack: debug.Stack()}
		}
	}()
	if ierr := s.opts.Faults.FireCtx(t.fl.ctx, faults.SiteServerExec); ierr != nil {
		return gpu.Result{}, fmt.Errorf("exec fault: %w", ierr)
	}
	return s.runSim(t.fl.ctx, t.cfg, t.kernel)
}

// panicError is a job panic recovered at the worker boundary.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("job panicked: %v", e.value) }

// panicMessage reports whether err is (or wraps) a recovered panic,
// and with what message.
func panicMessage(err error) (string, bool) {
	var wp *panicError
	if errors.As(err, &wp) {
		return wp.Error(), true
	}
	var pe *gpu.PanicError
	if errors.As(err, &pe) {
		return pe.Error(), true
	}
	return "", false
}

// complete publishes a flight's outcome and retires it.
func (s *Server) complete(key simcache.Key, fl *flight, entry simcache.Entry, err error) {
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	fl.entry, fl.err = entry, err
	close(fl.done)
	fl.cancel() // release the timeout timer
}

// dropWaiter unregisters one waiter; when the last waiter of an
// unfinished flight leaves, the flight's simulation is cancelled.
func (s *Server) dropWaiter(fl *flight) {
	s.mu.Lock()
	fl.waiters--
	abandoned := fl.waiters == 0
	s.mu.Unlock()
	if abandoned {
		select {
		case <-fl.done:
		default:
			fl.cancel()
		}
	}
}

// jobTimeout clamps a spec's requested timeout (milliseconds) into
// the server's allowed range.
func (s *Server) jobTimeout(timeoutMS int) time.Duration {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// preflight runs the checks every submission path shares before any
// per-job work: drain state, the admission fault site, and the
// tenant token bucket.
func (s *Server) preflight(ctx context.Context) error {
	if s.draining.Load() {
		return &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if err := s.opts.Faults.FireCtx(ctx, faults.SiteServerAdmit); err != nil {
		return &apiError{status: http.StatusServiceUnavailable,
			msg: "admission fault: " + err.Error()}
	}
	if tenant := tenantFrom(ctx); !s.limiter.allow(tenant) {
		s.rateLimited.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			msg:        "tenant rate limit exceeded, retry later",
			retryAfter: 1,
			extra:      map[string]any{"tenant": tenant, "rate_limited": true},
		}
	}
	return nil
}

// apiError is a submission failure with its HTTP status, an optional
// Retry-After hint (seconds), and optional extra JSON body fields.
type apiError struct {
	status     int
	msg        string
	retryAfter int
	extra      map[string]any
}

func (e *apiError) Error() string { return e.msg }

func errStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	return http.StatusInternalServerError
}

// JobResult is the wire form of one completed job.
type JobResult struct {
	// Key is the job's content address in the result cache.
	Key string `json:"key"`
	// Cached reports that the result was served from the cache without
	// simulating; Coalesced that it was deduplicated onto an in-flight
	// twin simulation.
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Workload  string `json:"workload"`
	Policy    string `json:"policy"`
	Blocks    int    `json:"blocks"`
	// Counters and Derived are bit-identical across cache hits, misses,
	// and coalesced replays of the same key (the determinism contract).
	Counters stats.Counters `json:"counters"`
	Derived  stats.Derived  `json:"derived"`
	// Error is set instead of the result fields for failed batch items.
	// ErrorStatus carries the HTTP status the same failure would have
	// produced as a single /v1/jobs request, and ErrorExtra the same
	// structured body fields (retry_after_sec, tenant, queue depths,
	// quarantined, ...), so batch clients can classify per-entry
	// failures — retryable 429/503 vs deterministic 4xx — exactly like
	// single-job clients instead of string-matching Error.
	Error       string         `json:"error,omitempty"`
	ErrorStatus int            `json:"error_status,omitempty"`
	ErrorExtra  map[string]any `json:"error_extra,omitempty"`
	// TraceID echoes the request's trace (the X-Trace-ID header) so
	// clients can correlate results with /debug/events and logs.
	TraceID string `json:"trace_id,omitempty"`
}

// Failed reports whether the result is a per-entry error.
func (r JobResult) Failed() bool { return r.Error != "" }

// errorResult builds the per-entry error form of a JobResult,
// preserving the apiError's status and structured fields.
func errorResult(workloadID string, err error) JobResult {
	res := JobResult{Workload: workloadID, Error: err.Error(), ErrorStatus: errStatus(err)}
	var ae *apiError
	if errors.As(err, &ae) && len(ae.extra) > 0 {
		res.ErrorExtra = make(map[string]any, len(ae.extra))
		for k, v := range ae.extra {
			res.ErrorExtra[k] = v
		}
	}
	return res
}

func resultFrom(key simcache.Key, workloadID string, e simcache.Entry, cached, coalesced bool) JobResult {
	return JobResult{
		Key:       key.String(),
		Cached:    cached,
		Coalesced: coalesced,
		Workload:  workloadID,
		Policy:    e.Policy,
		Blocks:    e.Blocks,
		Counters:  e.Counters,
		Derived:   e.Derived(),
	}
}

// Submit runs one job to completion: cache lookup, singleflight
// coalescing, then a bounded-queue simulation. ctx is the caller's
// (request) context — its cancellation abandons the wait, and the
// underlying simulation stops once every interested caller is gone.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (JobResult, error) {
	tr := obs.TraceFrom(ctx)
	admitStart := time.Now()
	if err := s.preflight(ctx); err != nil {
		return JobResult{}, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return JobResult{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	// Thread the fault layer into the job so the per-SM site fires; the
	// cache key deliberately ignores it (like Trace, it is not an
	// architecture parameter).
	cfg.Faults = s.opts.Faults
	kernel, err := spec.BuildKernel()
	if err != nil {
		return JobResult{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	key := simcache.KeyOf(cfg, kernel, spec.WorkloadID())
	return s.execute(ctx, tr, admitStart, key, cfg, kernel,
		spec.WorkloadID(), s.jobTimeout(spec.TimeoutMS))
}

// execute is the submission tail shared by Submit (catalogued
// workloads) and SubmitKernel (untrusted assembly): quarantine check,
// cache lookup, singleflight coalescing, fair-queue enqueue with
// tenant quotas, then the wait and error mapping.
func (s *Server) execute(ctx context.Context, tr *obs.Trace, admitStart time.Time,
	key simcache.Key, cfg config.Config, kernel *sm.Kernel,
	workloadID string, timeout time.Duration) (JobResult, error) {
	s.mu.Lock()
	reason, quarantined := s.quarantine[key]
	s.mu.Unlock()
	if quarantined {
		s.quarHits.Add(1)
		return JobResult{}, &apiError{
			status: http.StatusUnprocessableEntity,
			msg:    "job is quarantined after a previous panic: " + reason,
			extra:  map[string]any{"quarantined": true, "key": key.String()},
		}
	}
	s.jobsTotal.Add(1)
	admitEnd := time.Now()
	tr.AddSpan("admit", admitStart, admitEnd)
	s.obs.ObserveStage("admit", admitEnd.Sub(admitStart).Microseconds())

	cacheEnd := stageTimer(s, tr, "cache")
	e, hit := s.cache.Get(key)
	cacheEnd()
	if hit {
		res := resultFrom(key, workloadID, e, true, false)
		res.TraceID = obs.TraceIDFrom(ctx)
		return res, nil
	}

	// Singleflight: join an in-flight twin, or become the one that
	// simulates. The flight's context is independent of any single
	// request so coalesced waiters survive the first requester leaving;
	// the first submitter's trace rides along so worker-side spans and
	// logs correlate with the request that caused the simulation.
	dedupEnd := stageTimer(s, tr, "dedup")
	s.mu.Lock()
	fl, joined := s.flights[key]
	if joined {
		fl.waiters++
		s.mu.Unlock()
		s.coalesced.Add(1)
		dedupEnd()
	} else {
		flCtx, cancel := context.WithTimeout(s.baseCtx, timeout)
		flCtx = obs.WithTrace(flCtx, tr)
		fl = &flight{ctx: flCtx, cancel: cancel, done: make(chan struct{}), waiters: 1}
		s.flights[key] = fl
		s.mu.Unlock()
		dedupEnd()

		tenant := s.tenantNames.canon(tenantFrom(ctx))
		s.taskWG.Add(1)
		if qerr := s.queue.push(tenant, task{fl: fl, key: key, cfg: cfg, kernel: kernel,
			workload: workloadID, tenant: tenant, enqueued: time.Now()}); qerr != nil {
			// Backpressure: the shared queue is full, or this tenant is
			// over its queued quota. Retire the flight we just registered
			// and tell the client to retry later.
			s.taskWG.Done()
			s.mu.Lock()
			delete(s.flights, key)
			s.mu.Unlock()
			fl.cancel()
			s.rejected.Add(1)
			ra := s.retryAfterSec()
			msg := "job queue is full, retry later"
			if errors.Is(qerr, errTenantFull) {
				msg = "tenant queue quota exceeded, retry later"
			}
			return JobResult{}, &apiError{
				status:     http.StatusTooManyRequests,
				msg:        msg,
				retryAfter: ra,
				extra:      s.backpressureExtra(tenant, ra),
			}
		}
	}

	select {
	case <-fl.done:
	case <-ctx.Done():
		s.dropWaiter(fl)
		return JobResult{}, &apiError{status: http.StatusRequestTimeout,
			msg: fmt.Sprintf("request abandoned: %v", ctx.Err())}
	}
	if fl.err != nil {
		if _, panicked := panicMessage(fl.err); panicked {
			// First occurrence of a panicking key: every coalesced waiter
			// gets the structured 500; the worker has already quarantined
			// the key, so re-submissions get 422 instead.
			return JobResult{}, &apiError{
				status: http.StatusInternalServerError,
				msg:    fmt.Sprintf("simulation panicked, key quarantined: %v", fl.err),
				extra:  map[string]any{"quarantined": true, "key": key.String()},
			}
		}
		var de *sm.DeadlockError
		if errors.As(fl.err, &de) {
			// Structural deadlock: deterministic and the program's own
			// fault (admission admits statically-sound shapes that can
			// still deadlock dynamically, e.g. twin BSYNCs on divergent
			// paths), so it maps to 422 like a budget kill.
			return JobResult{}, &apiError{
				status: http.StatusUnprocessableEntity,
				msg:    fmt.Sprintf("kernel deadlocked: sm %d at cycle %d", de.SM, de.Cycle),
				extra:  map[string]any{"deadlock": true, "cycle": de.Cycle},
			}
		}
		var be *sm.BudgetError
		if errors.As(fl.err, &be) {
			// Deterministic gas kill: the job is well-defined but exceeds
			// its resource budget, and re-running it will die at exactly
			// the same point. 422 (like quarantine) rather than 5xx: the
			// problem is the submission, not the service.
			return JobResult{}, &apiError{
				status: http.StatusUnprocessableEntity,
				msg:    "budget exhausted: " + fl.err.Error(),
				extra: map[string]any{
					"budget_exhausted": be.Resource,
					"limit":            be.Limit,
					"used":             be.Used,
					"cycle":            be.Cycle,
				},
			}
		}
		switch {
		case errors.Is(fl.err, context.DeadlineExceeded):
			return JobResult{}, &apiError{status: http.StatusGatewayTimeout,
				msg: fmt.Sprintf("job timed out: %v", fl.err)}
		case errors.Is(fl.err, context.Canceled):
			return JobResult{}, &apiError{status: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("job cancelled: %v", fl.err)}
		default:
			return JobResult{}, &apiError{status: http.StatusInternalServerError, msg: fl.err.Error()}
		}
	}
	res := resultFrom(key, workloadID, fl.entry, false, joined)
	res.TraceID = obs.TraceIDFrom(ctx)
	return res, nil
}

// SetTenantWeights swaps the weighted-fair dequeue shares at runtime
// (operators rebalance tenants without a restart; the cluster gate
// exercises a mid-stream change). Takes effect from the next dequeue.
func (s *Server) SetTenantWeights(weights map[string]int) {
	s.queue.SetWeights(weights)
}

// backpressureExtra is the structured body of every queue-pressure 429
// this server emits — shared queue depth/cap, the rejected tenant's own
// queued depth, and the recent queue-wait p95 — so clients can back off
// proportionally. The cluster coordinator reuses it verbatim when it
// aggregates per-peer 429s, so clients back off identically against
// either topology.
func (s *Server) backpressureExtra(tenant string, retryAfterSec int) map[string]any {
	return map[string]any{
		"tenant":             tenant,
		"queue_depth":        s.queue.Len(),
		"queue_cap":          s.queue.Cap(),
		"tenant_queue_depth": s.queue.depthOf(tenant),
		"queue_wait_p95_ms":  float64(s.obs.StageHistogram("queue").Quantile(0.95)) / 1e3,
		"retry_after_sec":    retryAfterSec,
	}
}

// BackpressureBody exposes backpressureExtra for the cluster
// coordinator's local-fallback and aggregate-429 paths.
func (s *Server) BackpressureBody(tenant string) map[string]any {
	return s.backpressureExtra(s.tenantNames.canon(sanitizeTenant(tenant)), s.retryAfterSec())
}

// retryAfterSec estimates when queue capacity should free up: the p95
// job latency times the jobs ahead of a new arrival, spread across the
// worker pool. With no completed jobs yet there is nothing to model,
// so the hint is the minimum.
func (s *Server) retryAfterSec() int {
	s.latMu.Lock()
	n := s.latency.Count()
	p95us := s.latency.Quantile(0.95)
	s.latMu.Unlock()
	if n == 0 {
		return 1
	}
	ahead := int64(s.queue.Len()) + s.inFlight.Load() + 1
	sec := math.Ceil(float64(p95us) / 1e6 * float64(ahead) / float64(s.opts.Workers))
	switch {
	case sec < 1:
		return 1
	case sec > 120:
		return 120
	default:
		return int(sec)
	}
}

// Drain stops accepting jobs and waits for queued and in-flight work
// to finish. If ctx expires first, every remaining job is cancelled
// and Drain waits for the workers to observe it. The worker pool is
// shut down either way; the server cannot be reused afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	finished := make(chan struct{})
	go func() {
		s.taskWG.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain deadline passed, cancelling %d jobs: %w",
			s.inFlight.Load()+int64(s.queue.Len()), ctx.Err())
		s.cancelBase()
		<-finished
	}
	s.queue.close()
	s.workerWG.Wait()
	s.cancelBase()
	return err
}

// Metrics is the /metrics payload.
type Metrics struct {
	UptimeSec        float64        `json:"uptime_sec"`
	Draining         bool           `json:"draining"`
	Workers          int            `json:"workers"`
	QueueDepth       int            `json:"queue_depth"`
	QueueCap         int            `json:"queue_cap"`
	JobsInFlight     int64          `json:"jobs_in_flight"`
	JobsTotal        int64          `json:"jobs_total"`
	JobsDone         int64          `json:"jobs_done"`
	JobsFailed       int64          `json:"jobs_failed"`
	Rejected         int64          `json:"rejected"`
	RateLimited      int64          `json:"rate_limited"`
	Coalesced        int64          `json:"coalesced"`
	Panics           int64          `json:"panics"`
	QuarantinedKeys  int            `json:"quarantined_keys"`
	QuarantineHits   int64          `json:"quarantine_hits"`
	Degraded         bool           `json:"degraded"`
	CorruptEvictions int64          `json:"corrupt_evictions"`
	Cache            simcache.Stats `json:"cache"`
	CacheHitRate     float64        `json:"cache_hit_rate"`
	CacheEntries     int            `json:"cache_entries"`
	LatencyP50MS     float64        `json:"latency_p50_ms"`
	LatencyP95MS     float64        `json:"latency_p95_ms"`
	LatencyP99MS     float64        `json:"latency_p99_ms"`
	LatencyMaxMS     float64        `json:"latency_max_ms"`
	// Queue-wait (enqueue -> worker pickup) and exec (simulation on a
	// worker) are reported separately so saturation is distinguishable
	// from slow jobs.
	QueueWaitP50MS float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95MS float64 `json:"queue_wait_p95_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	ExecP50MS      float64 `json:"exec_p50_ms"`
	ExecP95MS      float64 `json:"exec_p95_ms"`
	ExecP99MS      float64 `json:"exec_p99_ms"`
	// SimCyclesTotal is the sum of simulated cycles over completed
	// simulations; SimCyclesPerSecond divides it by the wall time
	// workers spent producing them (simulation throughput, 0 until a
	// job completes).
	SimCyclesTotal     int64   `json:"sim_cycles_total"`
	SimCyclesPerSecond float64 `json:"sim_cycles_per_second"`
}

// MetricsSnapshot gathers the server's current metrics.
func (s *Server) MetricsSnapshot() Metrics {
	cs := s.cache.Stats()
	s.latMu.Lock()
	p50 := s.latency.Quantile(0.50)
	p95 := s.latency.Quantile(0.95)
	p99 := s.latency.Quantile(0.99)
	max := s.latency.Max()
	s.latMu.Unlock()
	qw := s.obs.StageHistogram("queue")
	ex := s.obs.StageHistogram("exec")
	s.mu.Lock()
	quarantined := len(s.quarantine)
	s.mu.Unlock()
	cycles := s.simCycles.Load()
	perSec := 0.0
	if busy := s.simBusyNS.Load(); busy > 0 {
		perSec = float64(cycles) / (float64(busy) / 1e9)
	}
	return Metrics{
		UptimeSec:        time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		Workers:          s.opts.Workers,
		QueueDepth:       s.queue.Len(),
		QueueCap:         s.queue.Cap(),
		JobsInFlight:     s.inFlight.Load(),
		JobsTotal:        s.jobsTotal.Load(),
		JobsDone:         s.jobsDone.Load(),
		JobsFailed:       s.jobsFailed.Load(),
		Rejected:         s.rejected.Load(),
		RateLimited:      s.rateLimited.Load(),
		Coalesced:        s.coalesced.Load(),
		Panics:           s.panics.Load(),
		QuarantinedKeys:  quarantined,
		QuarantineHits:   s.quarHits.Load(),
		Degraded:         s.degraded(),
		CorruptEvictions: cs.Corrupt,
		Cache:            cs,
		CacheHitRate:     cs.HitRate(),
		CacheEntries:     s.cache.Len(),
		LatencyP50MS:     float64(p50) / 1e3,
		LatencyP95MS:     float64(p95) / 1e3,
		LatencyP99MS:     float64(p99) / 1e3,
		LatencyMaxMS:     float64(max) / 1e3,
		QueueWaitP50MS:   float64(qw.Quantile(0.50)) / 1e3,
		QueueWaitP95MS:   float64(qw.Quantile(0.95)) / 1e3,
		QueueWaitP99MS:   float64(qw.Quantile(0.99)) / 1e3,
		ExecP50MS:        float64(ex.Quantile(0.50)) / 1e3,
		ExecP95MS:        float64(ex.Quantile(0.95)) / 1e3,
		ExecP99MS:        float64(ex.Quantile(0.99)) / 1e3,

		SimCyclesTotal:     cycles,
		SimCyclesPerSecond: perSec,
	}
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz        liveness (503 while draining) + build info
//	GET  /metrics        metrics: Prometheus text exposition when the
//	                     Accept header asks for text/plain, the
//	                     backward-compatible JSON snapshot otherwise
//	GET  /debug/events   bounded ring of operational incidents
//	GET  /debug/traces   recent request trace IDs
//	GET  /debug/traces/{id}  one trace as Perfetto/Chrome trace JSON
//	GET  /v1/apps        application trace catalogue
//	POST /v1/jobs        run one JobSpec
//	POST /v1/batch       run {"jobs": [JobSpec...]}, coalescing duplicates
//	POST /v1/submit      validate and run one untrusted SubmitSpec kernel
//
// Every request is traced: a client-provided X-Trace-ID header is
// adopted (else one is generated), echoed on the response, propagated
// through the job path via context, and retained in /debug/traces.
// Every request also carries a tenant identity (the X-Tenant header,
// DefaultTenant when absent) that keys the rate limiter, the queue
// quotas, and weighted-fair dequeue.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleDebugTrace)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	return s.traceMiddleware(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := errStatus(err)
	body := map[string]any{"error": err.Error()}
	var ae *apiError
	if errors.As(err, &ae) {
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		} else if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		for k, v := range ae.extra {
			body[k] = v
		}
	}
	writeJSON(w, status, body)
}

// degraded reports whether the result cache has fallen back to
// memory-only serving (its disk circuit breaker is open).
func (s *Server) degraded() bool {
	d, ok := s.cache.(interface{ Degraded() bool })
	return ok && d.Degraded()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Build info renders as a flat string so the payload stays a
	// map[string]string (clients decode it that way).
	build := obs.Build().String()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "draining", "build": build})
		return
	}
	if s.degraded() {
		// Still 200: results remain correct (and cached in memory); only
		// the persistence tier is down. Health checkers keep routing
		// traffic here, and the status string tells operators why cache
		// hit rates dropped.
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"detail": "disk cache unavailable, serving memory-only",
			"build":  build,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "build": build})
}

// handleMetrics content-negotiates the two exposition formats: a
// text/plain Accept preference gets Prometheus text exposition, every
// other request the backward-compatible JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obs.Reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workload.Apps())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "bad job spec: " + err.Error()})
		return
	}
	ctx := r.Context()
	res, err := s.Submit(ctx, spec)
	if err != nil {
		s.obs.Logger().Warn("job rejected",
			"trace_id", obs.TraceIDFrom(ctx), "workload", spec.WorkloadID(),
			"status", errStatus(err), "error", err)
		writeError(w, err)
		return
	}
	s.obs.Logger().Info("job complete",
		"trace_id", obs.TraceIDFrom(ctx), "key", res.Key,
		"workload", res.Workload, "cached", res.Cached, "coalesced", res.Coalesced)
	respondEnd := stageTimer(s, obs.TraceFrom(ctx), "respond")
	writeJSON(w, http.StatusOK, res)
	respondEnd()
}

// batchRequest is the /v1/batch payload.
type batchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// batchResponse preserves request order; failed items carry Error and
// empty result fields.
type batchResponse struct {
	Results []JobResult `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "bad batch: " + err.Error()})
		return
	}
	if err := s.opts.Faults.FireCtx(r.Context(), faults.SiteServerBatch); err != nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable,
			msg: "batch fault: " + err.Error()})
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "batch has no jobs"})
		return
	}
	if len(req.Jobs) > s.opts.MaxBatch {
		writeError(w, &apiError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Jobs), s.opts.MaxBatch)})
		return
	}
	// Every item goes through Submit concurrently: identical specs
	// coalesce onto one simulation, distinct ones use the worker pool.
	// Results land at the entry's own index, and each goroutine carries
	// its own recover guard, so one failed — or panicking — sub-job can
	// neither drop nor reorder sibling results: Results[i] always
	// answers Jobs[i].
	resp := batchResponse{Results: make([]JobResult, len(req.Jobs))}
	var wg sync.WaitGroup
	for i, spec := range req.Jobs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					resp.Results[i] = errorResult(spec.WorkloadID(), &apiError{
						status: http.StatusInternalServerError,
						msg:    fmt.Sprintf("batch entry panicked: %v", p),
					})
				}
			}()
			res, err := s.Submit(r.Context(), spec)
			if err != nil {
				res = errorResult(spec.WorkloadID(), err)
			}
			resp.Results[i] = res
		}(i, spec)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}
