// Package gpu assembles streaming multiprocessors into a whole device
// and launches kernels across them, mirroring the paper's simulated
// configuration of Table I (2 SMs of 4 processing blocks each).
package gpu

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"subwarpsim/internal/config"
	"subwarpsim/internal/faults"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
)

// PanicError reports a panic recovered inside one SM's simulation
// goroutine. A panicking SM must never take down the process (the
// serving layer runs many unrelated jobs on the same worker pool), so
// RunContext converts it into an error carrying the panic value and
// stack; callers detect it with errors.As and can quarantine the
// offending job.
type PanicError struct {
	// SM is the index of the SM whose simulation panicked.
	SM int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sm %d panicked: %v", e.SM, e.Value)
}

// MaxCycles bounds a single simulation; kernels that exceed it are
// reported as errors rather than hanging the harness. It is a variable
// so tests can tighten it.
var MaxCycles = int64(200_000_000)

// Result is the outcome of one kernel launch.
type Result struct {
	// Config the launch ran under.
	Config config.Config
	// Counters merged across all SMs and processing blocks.
	Counters stats.Counters
	// Blocks is the total processing block count, the normalization
	// denominator for per-cycle fractions.
	Blocks int
	// Memory is the final memory image: every store the launch made,
	// over the kernel's untouched image. A failed run keeps the stores
	// made up to the failure; it is nil only when the configuration or
	// the kernel was rejected before anything ran.
	Memory *mem.View
}

// Derived computes the normalized metrics for this result.
func (r Result) Derived() stats.Derived {
	return r.Counters.Derive(r.Blocks)
}

// Run launches the kernel on a freshly constructed GPU with the given
// configuration and simulates to completion, using up to GOMAXPROCS
// worker goroutines. It is shorthand for RunWorkers(cfg, kernel, 0).
func Run(cfg config.Config, kernel *sm.Kernel) (Result, error) {
	return RunWorkers(cfg, kernel, 0)
}

// RunWorkers is RunContext with a background context (no cancellation
// or deadline).
func RunWorkers(cfg config.Config, kernel *sm.Kernel, workers int) (Result, error) {
	return RunContext(context.Background(), cfg, kernel, workers)
}

// RunContext launches the kernel on a freshly constructed GPU and
// simulates every SM to completion on a bounded pool of workers goroutines
// (0 means GOMAXPROCS; 1 simulates SMs one after another).
//
// The context cancels the run: every SM observes ctx and returns
// promptly (within a few thousand simulated cycles) once it is
// cancelled or its deadline passes, and the returned error wraps
// ctx.Err() so callers can errors.Is it against context.Canceled or
// context.DeadlineExceeded. A cancelled run's partial effects follow
// the same deterministic epilogue as any failing run.
//
// Warps distribute round-robin across SMs, and within an SM across its
// processing blocks; warps beyond the register-limited occupancy run as
// follow-on waves. SMs only share read-only launch state (program, BVH
// — which builds its nodes once, whichever SM traverses it first — and
// ray generator), so each simulates independently in its own goroutine:
// every SM executes loads and stores against a private copy-on-write
// view of the functional memory image (mem.View), and traces into a
// private shard recorder (trace.Recorder.Child) when cfg.Trace is set.
// After all SMs finish, the other views fold into SM 0's, which
// becomes Result.Memory, counters merge, and trace shards absorb
// (handing their event chunks to cfg.Trace, which consumes them) in
// ascending SM order, so counters, derived metrics, the final memory
// image, and exported trace streams are bit-identical for every worker
// count and goroutine interleaving. A consequence of the sharded image
// is that warps on different SMs never observe each other's stores
// mid-run — like CUDA kernels without atomics, cross-SM communication
// within a launch is undefined.
//
// The run is pure in its kernel: nothing reachable from kernel is
// written, so one kernel serves every configuration it is compared
// under, in sequence or concurrently.
func RunContext(ctx context.Context, cfg config.Config, kernel *sm.Kernel, workers int) (Result, error) {
	res := Result{Config: cfg, Blocks: cfg.NumSMs * cfg.BlocksPerSM}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if err := kernel.Validate(); err != nil {
		return res, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	parent := cfg.Trace
	shards := make([]*trace.Recorder, cfg.NumSMs)
	sms := make([]*sm.SM, cfg.NumSMs)
	for i := range sms {
		smCfg := cfg
		if parent != nil {
			shards[i] = parent.Child()
			smCfg.Trace = shards[i]
		}
		s, err := sm.NewSM(i, smCfg, kernel)
		if err != nil {
			return res, err
		}
		sms[i] = s
	}
	res.Memory = sms[0].Memory()

	perSMSeq := make([]int, cfg.NumSMs)
	for w := 0; w < kernel.NumWarps; w++ {
		smIdx := w % cfg.NumSMs
		ctaID := w / kernel.WarpsPerCTA
		warpInCTA := w % kernel.WarpsPerCTA
		sms[smIdx].Admit(perSMSeq[smIdx], w, ctaID, warpInCTA)
		perSMSeq[smIdx]++
	}

	maxCycles := MaxCycles
	counters := make([]stats.Counters, len(sms))
	errs := make([]error, len(sms))
	// runSM simulates one SM, converting a panic — whether injected
	// via cfg.Faults or a genuine model bug — into a *PanicError so a
	// single bad job can never kill the process (or, on the parallel
	// path, an unrecoverable worker goroutine).
	// reqTrace is the request-scoped wall-clock trace, when the launch
	// came in through a traced serving path; nil (the common CLI case)
	// records nothing.
	reqTrace := obs.TraceFrom(ctx)
	runSM := func(i int, s *sm.SM) (c stats.Counters, err error) {
		defer reqTrace.StartSpan(fmt.Sprintf("sm %d", i))()
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{SM: i, Value: v, Stack: debug.Stack()}
			}
		}()
		if ierr := cfg.Faults.FireCtx(ctx, faults.SiteSMRun); ierr != nil {
			return c, fmt.Errorf("sm %d: %w", i, ierr)
		}
		return s.RunContext(ctx, maxCycles)
	}
	if workers == 1 || len(sms) == 1 {
		for i, s := range sms {
			counters[i], errs[i] = runSM(i, s)
			if errs[i] != nil {
				break // later SMs stay unsimulated, as before parallelism
			}
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, s := range sms {
			wg.Add(1)
			go func(i int, s *sm.SM) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				counters[i], errs[i] = runSM(i, s)
			}(i, s)
		}
		wg.Wait()
	}

	// Deterministic epilogue: merge and absorb strictly in SM order. On
	// error, only state up to and including the first failing SM is
	// kept — exactly what a sequential run would have produced.
	for i, s := range sms {
		if i > 0 {
			res.Memory.Absorb(s.Memory())
		}
		if parent != nil {
			parent.Absorb(shards[i])
		}
		if errs[i] != nil {
			// The failing SM's partial stores and trace are kept (it did
			// simulate up to the failure), its counters are not.
			return res, fmt.Errorf("gpu: SM %d: %w", i, errs[i])
		}
		res.Counters.Merge(counters[i])
	}
	return res, nil
}

// Compare runs the kernel under a baseline and a test configuration
// and returns both results with the speedup of test over baseline.
func Compare(base, test config.Config, kernel *sm.Kernel) (Result, Result, float64, error) {
	rb, err := Run(base, kernel)
	if err != nil {
		return rb, Result{}, 0, err
	}
	rt, err := Run(test, kernel)
	if err != nil {
		return rb, rt, 0, err
	}
	return rb, rt, stats.Speedup(rb.Counters, rt.Counters), nil
}
