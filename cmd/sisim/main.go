// Command sisim runs one simulation and prints its statistics.
//
//	sisim -app BFV1                       # baseline raytracing trace
//	sisim -app BFV1 -si -yield            # Both, N>=0.5
//	sisim -app Ctrl -si -trigger any      # SOS, N>0
//	sisim -microbench 4                   # 8-way divergence microbenchmark
//	sisim -workload bfs -si               # registered workload family
//	sisim -workload gemm -policy gto      # greedy-then-oldest scheduler
//	sisim -app MW -si -latency 900 -maxsubwarps 4
//	sisim -microbench 4 -si -trace out.json -trace-warps 0-7
//	sisim -app BFV1 -si -timeline occupancy.csv -stalls -hist
//	sisim -submit kernel.asm -max-cycles 100000   # untrusted assembly
//
// Workloads come in four kinds: -app (the paper's raytracing traces,
// see -listapps), -microbench (the divergence-scaling microbenchmark),
// -workload (registered synthetic families — the list in the flag's
// usage text is enumerated from the registry, so new families show up
// automatically), and -submit (untrusted assembly put through the same
// admission checks and gas budgets the daemon's /v1/submit applies, so
// a kernel can be vetted locally before it is ever sent to a service).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"subwarpsim"
	"subwarpsim/internal/admission"
	"subwarpsim/internal/faults"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
)

func main() {
	app := flag.String("app", "", "application trace name (AV1..MW); see -listapps")
	micro := flag.Int("microbench", 0, "run the microbenchmark with this subwarp size (1..32)")
	// The -workload menu is enumerated from the generator registry so
	// usage text can never go stale as families are added.
	workloadFlag := flag.String("workload", "",
		"synthetic workload family: "+strings.Join(subwarpsim.WorkloadNames(), ", "))
	submitPath := flag.String("submit", "",
		"validate and run untrusted assembly from this file under the daemon's admission checks and gas budgets")
	submitWarps := flag.Int("warps", 8, "warps to launch for -submit")
	maxCycles := flag.Int64("max-cycles", 2_000_000, "-submit gas budget: simulated cycles per SM (0 = unlimited)")
	maxInstrs := flag.Int64("max-instrs", 8_000_000, "-submit gas budget: retired instructions per SM (0 = unlimited)")
	memFootprint := flag.Int64("mem-footprint", 8<<20,
		"-submit declared memory footprint in bytes: static bound on memory-operand immediates and the memory gas budget")
	policyFlag := flag.String("policy", "", "warp scheduler policy: lrr (default), gto, wasp")
	si := flag.Bool("si", false, "enable Subwarp Interleaving")
	dws := flag.Bool("dws", false, "model Dynamic Warp Subdivision instead of SI")
	yield := flag.Bool("yield", false, "enable subwarp-yield (the paper's 'Both' mode)")
	trigger := flag.String("trigger", "half", "select trigger: any (N>0), half (N>=0.5), all (N=1)")
	latency := flag.Int("latency", 600, "L1 miss latency in cycles (0 = the Table I default)")
	warpSlots := flag.Int("warpslots", 8, "warp slots per processing block (2, 4, 8; 0 = the Table I default)")
	maxSubwarps := flag.Int("maxsubwarps", 0, "TST entries / subwarps per warp (0 = unlimited)")
	order := flag.String("order", "taken", "divergent path order: taken, fallthrough, largest, random")
	jobs := flag.Int("j", 0, "concurrent SM simulation goroutines (0 = GOMAXPROCS, 1 = sequential)")
	listApps := flag.Bool("listapps", false, "list application traces and exit")
	verbose := flag.Bool("v", false, "print the full counter set")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace_event JSON timeline to this file")
	traceWarps := flag.String("trace-warps", "", "restrict the trace to these global warp IDs, e.g. 0-7 or 0,4,12")
	timeline := flag.String("timeline", "", "write per-window occupancy/IPC/TST time series CSV to this file")
	timelineWindow := flag.Int("timeline-window", 1000, "time-series window length in cycles")
	stalls := flag.Bool("stalls", false, "print the idle-cycle stall-attribution table")
	hist := flag.Bool("hist", false, "print latency histograms (load-to-use, stall duration, residency)")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this long (0 = no limit)")
	cacheDir := flag.String("cache-dir", "", "reuse results from this content-addressed cache directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Printf("sisim %s\n", obs.Build())
		return
	}
	if flag.NArg() > 0 {
		fail("unexpected argument %q", flag.Arg(0))
	}

	if *listApps {
		for _, a := range subwarpsim.Applications() {
			fmt.Printf("%-6s %-24s %-5s regs=%d warps=%d shaders=%d\n",
				a.Name, a.App, a.Effect, a.RegsPerThread, a.NumWarps, a.Shaders)
		}
		for _, g := range subwarpsim.WorkloadGenerators() {
			fmt.Printf("%-8s %s (use -workload)\n", g.Name, g.Title)
		}
		return
	}

	// The knobs and the catalogued workloads are the daemon's JobSpec, so
	// a spec sisimd would refuse is refused here with the same message.
	spec := server.JobSpec{
		App: *app, Microbench: *micro, Workload: *workloadFlag,
		SI: *si, DWS: *dws, Yield: *yield, Trigger: *trigger,
		LatencyCycles: *latency, WarpSlots: *warpSlots, MaxSubwarps: *maxSubwarps,
		Order: *order, Policy: *policyFlag,
	}
	selected := 0
	for _, set := range []bool{*micro != 0, *app != "", *workloadFlag != "", *submitPath != ""} {
		if set {
			selected++
		}
	}
	switch {
	case selected > 1:
		fail("choose one workload: -app, -microbench, -workload, or -submit, not several")
	case selected == 0:
		fail("choose a workload: -app <name>, -microbench <subwarp size>, or -workload <family>")
	case *submitPath == "":
		if err := spec.Validate(); err != nil {
			fail("%v", err)
		}
	}
	cfg, err := spec.Config()
	if err != nil {
		fail("%v", err)
	}
	var kernel *subwarpsim.Kernel
	if *submitPath != "" {
		kernel, err = buildSubmission(*submitPath, *submitWarps, subwarpsim.Budget{
			MaxCycles:   *maxCycles,
			MaxInstrs:   *maxInstrs,
			MaxMemBytes: *memFootprint,
		})
	} else {
		kernel, err = spec.BuildKernel()
	}
	if err != nil {
		fail("%v", err)
	}

	// Attach the observability layer only when a trace product was
	// requested: a nil Config.Trace keeps the hot path untouched.
	var rec *subwarpsim.TraceRecorder
	if *tracePath != "" || *timeline != "" || *hist {
		rec = subwarpsim.NewTraceRecorder()
		if *traceWarps != "" {
			ids, perr := parseWarpList(*traceWarps)
			if perr != nil {
				fail("bad -trace-warps %q: %v", *traceWarps, perr)
			}
			rec.FilterWarps(ids)
		}
		if *timeline != "" {
			rec.Series = subwarpsim.NewTimeSeries(int64(*timelineWindow))
		}
		cfg.Trace = rec
	}

	// Deterministic fault injection from SISIM_FAULTS — the same spec
	// grammar the daemon honors, for local drills and chaos replay.
	injector, err := faults.FromEnv()
	if err != nil {
		fail("%v", err)
	}
	cfg.Faults = injector

	// Content-addressed result reuse. Tracing bypasses the cache: a
	// replayed Entry has counters but no event stream.
	var cache simcache.Cache
	var key simcache.Key
	cached := false
	if *cacheDir != "" && rec == nil {
		d := simcache.NewDisk(*cacheDir)
		d.Faults = injector
		cache = d
		if *submitPath != "" {
			key = simcache.KeyOf(cfg, kernel, "submit/"+filepath.Base(*submitPath))
		} else if key, err = spec.Key(); err != nil {
			fail("%v", err)
		}
	}

	var res subwarpsim.Result
	if cache != nil {
		if e, ok := cache.Get(key); ok {
			res = subwarpsim.Result{Config: cfg, Counters: e.Counters, Blocks: e.Blocks}
			cached = true
		}
	}
	var wall time.Duration
	if !cached {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		stopProfile := func() {}
		if *cpuProfile != "" {
			f, perr := os.Create(*cpuProfile)
			if perr != nil {
				fail("%v", perr)
			}
			if perr := pprof.StartCPUProfile(f); perr != nil {
				f.Close()
				fail("starting CPU profile: %v", perr)
			}
			// Idempotent: called on the normal path right after the run, and
			// by fail() if the run errors, so the profile is always flushed
			// and the file closed — an aborted run still yields a usable
			// profile of the cycles it simulated.
			stopped := false
			stopProfile = func() {
				if stopped {
					return
				}
				stopped = true
				pprof.StopCPUProfile()
				if cerr := f.Close(); cerr != nil {
					fmt.Fprintf(os.Stderr, "closing %s: %v\n", *cpuProfile, cerr)
				}
			}
			cleanups = append(cleanups, stopProfile)
		}
		start := time.Now()
		res, err = subwarpsim.RunContext(ctx, cfg, kernel, *jobs)
		wall = time.Since(start)
		stopProfile()
		if *memProfile != "" {
			if perr := writeFileWith(*memProfile, func(w io.Writer) error {
				runtime.GC() // settle the heap so the profile shows retained state
				return pprof.WriteHeapProfile(w)
			}); perr != nil {
				fail("writing %s: %v", *memProfile, perr)
			}
		}
		if err != nil {
			// Budget kills and deadlocks are the submission's fault, not the
			// simulator's; report them in the same structured terms the
			// daemon's 422 responses use.
			var be *subwarpsim.BudgetError
			var de *subwarpsim.DeadlockError
			switch {
			case errors.As(err, &be):
				fail("budget exhausted: %s used %d exceeds limit %d at cycle %d (sm %d)",
					be.Resource, be.Used, be.Limit, be.Cycle, be.SM)
			case errors.As(err, &de):
				fail("deadlock at cycle %d (sm %d)\n%s", de.Cycle, de.SM, de.State)
			}
			fail("%v", err)
		}
		if cache != nil {
			cache.Put(key, simcache.Entry{
				Policy:   cfg.PolicyName(),
				Blocks:   res.Blocks,
				Counters: res.Counters,
			})
		}
	}

	c := res.Counters
	d := res.Derived()
	fmt.Printf("kernel    %s\n", kernel.Program.Name)
	if kernel.Budget.Enabled() {
		fmt.Printf("budget    %d cycles, %d instrs, %d mem bytes (per SM) — run stayed within it\n",
			kernel.Budget.MaxCycles, kernel.Budget.MaxInstrs, kernel.Budget.MaxMemBytes)
	}
	if cached {
		fmt.Printf("cache     hit %s\n", key)
	}
	fmt.Printf("config    %s, %s sched, L1 miss %d cy, %d warp slots/block\n",
		cfg.PolicyName(), cfg.SchedPolicy, cfg.L1MissLatency, cfg.WarpSlotsPerBlock)
	fmt.Printf("cycles    %d\n", c.Cycles)
	if !cached && wall > 0 {
		fmt.Printf("wall      %v (%.0f sim-cycles/sec)\n",
			wall.Round(time.Millisecond), float64(c.Cycles)/wall.Seconds())
	}
	fmt.Printf("instrs    %d (IPC/block %.3f, SIMT efficiency %.1f%%)\n",
		c.IssuedInstrs, d.IPC, d.SIMTEfficiency*100)
	fmt.Printf("stalls    %.1f%% of time exposed on loads (%.1f%% in divergent code)\n",
		d.ExposedStallFrac*100, d.DivergentStallFrac*100)
	fmt.Printf("fetch     %.1f%% of time exposed on instruction fetch\n", d.FetchStallFrac*100)
	fmt.Printf("L1D       %.1f%% miss (%d/%d lines)\n", d.L1DMissRate*100, c.L1DMisses, c.L1DAccesses)
	if c.RTTraces > 0 {
		fmt.Printf("RT core   %d traces, %.1f BVH steps/ray\n", c.RTTraces, d.AvgTraversalSteps)
	}
	if cfg.SI.Enabled {
		fmt.Printf("SI        %d stalls, %d wakeups, %d selects, %d yields, %d TST overflows\n",
			c.SubwarpStalls, c.SubwarpWakeups, c.SubwarpSelects, c.SubwarpYields, c.TSTOverflow)
	}
	if *verbose {
		fmt.Printf("\ncounters  %+v\n", c)
	}
	if *stalls {
		fmt.Printf("\n%s", subwarpsim.StallAttribution(c))
	}
	if rec != nil {
		if *hist {
			for _, h := range rec.Histograms() {
				fmt.Printf("\n%s", h)
			}
		}
		if *tracePath != "" {
			if err := writeFileWith(*tracePath, rec.WriteChromeTrace); err != nil {
				fail("writing %s: %v", *tracePath, err)
			}
			fmt.Printf("trace     %d events -> %s (open in ui.perfetto.dev)\n",
				rec.Len(), *tracePath)
			if n := rec.Dropped(); n > 0 {
				fmt.Printf("trace     %d events dropped at the cap; filter with -trace-warps\n", n)
			}
		}
		if *timeline != "" {
			if err := writeFileWith(*timeline, rec.Series.WriteCSV); err != nil {
				fail("writing %s: %v", *timeline, err)
			}
			fmt.Printf("timeline  %d windows of %d cycles -> %s\n",
				rec.Series.Len(), rec.Series.Window, *timeline)
		}
	}
}

// buildSubmission reads, admission-checks, and packages an untrusted
// assembly file exactly as the daemon's /v1/submit does: the same
// validator, the same budget semantics (the declared footprint bounds
// memory-operand immediates statically and the stored words
// dynamically), so a kernel accepted here is accepted by the service.
func buildSubmission(path string, warps int, budget subwarpsim.Budget) (*subwarpsim.Kernel, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if warps < 1 {
		return nil, fmt.Errorf("-warps must be at least 1")
	}
	lim := admission.DefaultLimits()
	lim.MemFootprintBytes = budget.MaxMemBytes
	prog, err := admission.ValidateSource(filepath.Base(path), string(src), lim)
	if err != nil {
		var ae *admission.Error
		if errors.As(err, &ae) {
			return nil, fmt.Errorf("admission reject (reason %s, pc %d): %s", ae.Reason, ae.PC, ae.Detail)
		}
		return nil, err
	}
	perCTA := 2
	if warps < perCTA {
		perCTA = warps
	}
	return &subwarpsim.Kernel{
		Program:     prog,
		NumWarps:    warps,
		WarpsPerCTA: perCTA,
		Memory:      subwarpsim.NewMemory(),
		Budget:      &budget,
	}, nil
}

// writeFileWith streams fn's output into a freshly created file.
func writeFileWith(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseWarpList parses "0-7", "0,4,12" or mixes like "0-3,16,24-25"
// into a sorted list of global warp IDs.
func parseWarpList(s string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi, found := strings.Cut(part, "-")
		from, err := strconv.Atoi(lo)
		if err != nil || from < 0 {
			return nil, fmt.Errorf("bad warp ID %q", lo)
		}
		to := from
		if found {
			if to, err = strconv.Atoi(hi); err != nil || to < from {
				return nil, fmt.Errorf("bad range %q", part)
			}
		}
		for id := from; id <= to; id++ {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty warp list")
	}
	return ids, nil
}

// cleanups are finalizers fail() must run before exiting — resources
// like an open CPU-profile file that defers would leak across os.Exit.
// Registered closures must be idempotent; they run last-first.
var cleanups []func()

func fail(format string, args ...any) {
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
