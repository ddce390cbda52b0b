// Package subwarpsim is a cycle-level simulator of an NVIDIA
// Turing-like GPU streaming multiprocessor implementing Subwarp
// Interleaving (Damani et al., "GPU Subwarp Interleaving", HPCA 2022).
//
// Subwarp Interleaving (SI) exploits warp divergence to hide memory
// latency: when a warp's active subwarp — a PC-aligned subset of its
// threads — suffers a load-to-use stall, the subwarp scheduler demotes
// it to a STALLED state and switches to another READY subwarp of the
// same warp, overlapping long-latency operations across divergent
// paths.
//
// The package exposes:
//
//   - the architecture configuration (Table I parameters plus SI
//     policy knobs): DefaultConfig, Config.WithSI;
//   - kernel construction: BuildMegakernel for the synthetic raytracing
//     application traces, BuildMicrobenchmark for the divergence
//     scaling microbenchmark, or hand-assembled programs via the
//     internal/isa builder;
//   - simulation: Run and Compare;
//   - the paper's evaluation harness: Experiments, ExperimentByID.
//
// A minimal session:
//
//	app, _ := subwarpsim.Application("BFV1")
//	kernel, _ := subwarpsim.BuildMegakernel(app)
//	base, _ := subwarpsim.Run(subwarpsim.DefaultConfig(), kernel)
//	si, _ := subwarpsim.Run(
//		subwarpsim.DefaultConfig().WithSI(true, subwarpsim.TriggerHalfStalled),
//		kernel)
//
//	fmt.Printf("SI speedup: %.1f%%\n",
//		100*subwarpsim.Speedup(base.Counters, si.Counters))
package subwarpsim

import (
	"context"

	"subwarpsim/internal/config"
	"subwarpsim/internal/experiments"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

// Config holds every architecture parameter of the simulated GPU; see
// DefaultConfig for the paper's Table I baseline.
type Config = config.Config

// SelectTrigger picks when the subwarp scheduler triggers
// subwarp-select on stalled warps (the paper's N knob).
type SelectTrigger = config.SelectTrigger

// Subwarp-select trigger policies (Section III-C3).
const (
	TriggerAnyStalled  = config.TriggerAnyStalled  // N > 0
	TriggerHalfStalled = config.TriggerHalfStalled // N >= 0.5
	TriggerAllStalled  = config.TriggerAllStalled  // N = 1
)

// SubwarpOrder selects which side of a divergent branch executes first.
type SubwarpOrder = config.SubwarpOrder

// Divergent-path activation orders (Section VI discusses sensitivity).
const (
	OrderTakenFirst       = config.OrderTakenFirst
	OrderFallthroughFirst = config.OrderFallthroughFirst
	OrderLargestFirst     = config.OrderLargestFirst
	OrderRandom           = config.OrderRandom
)

// DefaultConfig returns the Table I Turing-like baseline with SI
// disabled: 2 SMs x 4 processing blocks x 8 warp slots, 128 KB L1D,
// 64 KB L1I, 16 KB L0I, 600-cycle L1 miss latency.
func DefaultConfig() Config { return config.Default() }

// Kernel is one launch: a program plus its functional resources. A run
// never changes it — the stores come back as Result.Memory — so build a
// kernel once and run it under as many configurations as needed, one
// after another or at the same time.
type Kernel = sm.Kernel

// Budget gas-meters a kernel launch (see Kernel.Budget): per-SM limits
// on simulated cycles, retired instructions, and memory footprint.
type Budget = sm.Budget

// BudgetError reports a deterministic gas kill; DeadlockError a
// structural deadlock. Both are the submission's fault, and both occur
// at bit-identical points across engines and worker counts.
type (
	BudgetError   = sm.BudgetError
	DeadlockError = sm.DeadlockError
)

// Result is the outcome of a simulation: the configuration, the merged
// counters, and the final memory image (Result.Memory.Load reads a word
// of it).
type Result = gpu.Result

// Counters are the raw event counts a simulation produces.
type Counters = stats.Counters

// Derived are normalized metrics (stall fractions, IPC, miss rates).
type Derived = stats.Derived

// Run simulates the kernel to completion under the configuration,
// simulating SMs concurrently on up to GOMAXPROCS goroutines. Results
// are bit-identical to a sequential run (see RunWorkers).
func Run(cfg Config, kernel *Kernel) (Result, error) { return gpu.Run(cfg, kernel) }

// RunWorkers simulates the kernel with an explicit bound on concurrent
// SM simulation goroutines: 0 means GOMAXPROCS, 1 simulates SMs
// sequentially. Counters, derived metrics, the final memory image, and
// trace streams are bit-identical for every worker count.
func RunWorkers(cfg Config, kernel *Kernel, workers int) (Result, error) {
	return gpu.RunWorkers(cfg, kernel, workers)
}

// RunContext is RunWorkers with cancellation: when ctx is cancelled or
// its deadline passes, every simulating SM returns promptly and the
// error wraps ctx.Err() (errors.Is-compatible with context.Canceled
// and context.DeadlineExceeded).
func RunContext(ctx context.Context, cfg Config, kernel *Kernel, workers int) (Result, error) {
	return gpu.RunContext(ctx, cfg, kernel, workers)
}

// Compare runs the kernel under two configurations and returns both
// results and the speedup of test over base.
func Compare(base, test Config, kernel *Kernel) (Result, Result, float64, error) {
	return gpu.Compare(base, test, kernel)
}

// Speedup returns test's speedup over base as a fraction (0.063 means
// +6.3%).
func Speedup(base, test Counters) float64 { return stats.Speedup(base, test) }

// AppProfile parameterizes one synthetic raytracing application trace.
type AppProfile = workload.AppProfile

// Applications returns the ten raytracing trace profiles of Table II.
func Applications() []AppProfile { return workload.Apps() }

// ApplicationNames returns the trace names in paper order.
func ApplicationNames() []string { return workload.AppNames() }

// Application returns the named trace profile.
func Application(name string) (AppProfile, error) { return workload.ProfileByName(name) }

// BuildMegakernel assembles a raytracing megakernel (scene, BVH,
// camera, program) for the profile.
func BuildMegakernel(p AppProfile) (*Kernel, error) { return workload.Megakernel(p) }

// MicrobenchParams configures the Fig. 11 divergence microbenchmark.
type MicrobenchParams = workload.MicrobenchParams

// DefaultMicrobenchmark returns the Table III parameters for a subwarp
// size in {32, 16, 8, 4, 2, 1}.
func DefaultMicrobenchmark(subwarpSize int) MicrobenchParams {
	return workload.DefaultMicrobench(subwarpSize)
}

// BuildMicrobenchmark assembles the microbenchmark kernel.
func BuildMicrobenchmark(p MicrobenchParams) (*Kernel, error) { return workload.Microbench(p) }

// WorkloadGenerator describes one registered synthetic workload
// family (gemm, bfs, texture, ...): a named parameterless kernel
// constructor covering a control-flow shape beyond the raytracing
// traces.
type WorkloadGenerator = workload.Generator

// WorkloadGenerators returns the registered families sorted by name.
func WorkloadGenerators() []WorkloadGenerator { return workload.Generators() }

// WorkloadNames returns the registered family names, for CLI usage
// text and menus.
func WorkloadNames() []string { return workload.GeneratorNames() }

// BuildWorkload constructs a kernel for the named family.
func BuildWorkload(name string) (*Kernel, error) { return workload.BuildByName(name) }

// SchedPolicy selects the warp-scheduler arbitration rule (see
// Config.SchedPolicy): LRR round-robin (the default), greedy-then-
// oldest, or a WaSP-style phase-offset scheduler.
type SchedPolicy = config.SchedPolicy

const (
	SchedLRR  = config.SchedLRR
	SchedGTO  = config.SchedGTO
	SchedWaSP = config.SchedWaSP
)

// ParseSchedPolicy maps a policy name ("lrr", "gto", "wasp") onto the
// config constant.
func ParseSchedPolicy(name string) (SchedPolicy, error) { return config.ParseSchedPolicy(name) }

// TraceRecorder collects structured simulation events for the
// observability layer. Attach one to Config.Trace before Run; leaving
// Config.Trace nil (the default) disables tracing with zero overhead.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded simulation event: (cycle, SM, block,
// warp, PC, lane mask, kind, argument).
type TraceEvent = trace.Event

// TraceKind identifies the type of a recorded event.
type TraceKind = trace.Kind

// TimelineOptions configures TraceRecorder.ASCIITimeline rendering.
type TimelineOptions = trace.TimelineOptions

// NewTraceRecorder returns a recorder capturing every event kind from
// every warp, up to the default event cap.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Histogram is a power-of-two-bucketed latency distribution.
type Histogram = stats.Histogram

// TimeSeries accumulates windowed per-cycle samples (occupancy, live
// subwarps, IPC, TST fill).
type TimeSeries = stats.TimeSeries

// NewTimeSeries returns a time series with the given window length in
// cycles.
func NewTimeSeries(window int64) *TimeSeries { return stats.NewTimeSeries(window) }

// StallAttribution decomposes a run's idle cycles into the five
// exclusive buckets (load, fetch, switch, barrier, no-warp) as a
// printable table; the buckets sum exactly to Counters.IdleCycles.
func StallAttribution(c Counters) *stats.Table { return stats.StallAttribution(c) }

// Experiment regenerates one of the paper's tables or figures.
type Experiment = experiments.Experiment

// ExperimentReport is a regenerated artifact with tables and values.
type ExperimentReport = experiments.Report

// ExperimentOptions tunes experiment execution.
type ExperimentOptions = experiments.Options

// Experiments returns every paper artifact regenerator, in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment ("fig3", "table3", "fig12a",
// "fig12b", "fig13", "fig14", "fig15", "icache", "order", "yield").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
