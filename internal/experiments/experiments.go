// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V): the Fig. 3 baseline characterisation,
// the Table III microbenchmark scaling study, the Fig. 12 policy sweep
// and stall-reduction analysis, and the Fig. 13/14/15 and instruction-
// cache sensitivity studies. Each experiment prints the same rows or
// series the paper reports and records machine-readable values so
// tests can assert the reproduced *shape* against the paper's numbers.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks workloads (fewer warps and iterations) for smoke
	// tests and benchmarks; headline numbers shift slightly but the
	// qualitative shape is preserved.
	Quick bool
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Context cancels the experiment's simulations: when it is done,
	// in-flight runs return promptly and the experiment reports the
	// context error. Nil means context.Background().
	Context context.Context
	// Interpret turns basic-block fast-forward off (cfg.Compiled =
	// false) so every simulation runs in the stepped reference regime.
	// Results are bit-identical either way — the golden corpus is
	// checked in both regimes — so this is a verification and debugging
	// knob, not a result knob.
	Interpret bool
	// SchedPolicy overrides the warp-scheduler policy for every
	// simulation when set to a non-LRR value (the -policy flag). The
	// matrix experiment, which enumerates policies itself, narrows its
	// policy axis to the override instead, so the two compose.
	SchedPolicy config.SchedPolicy
	// Workloads narrows the matrix experiment's workload-family axis
	// to the named generators (the -workload flag); empty means all
	// registered families.
	Workloads []string

	// check runs every simulation under config.Config.Check; this
	// package's tests set it.
	check bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Report is one experiment's regenerated artifact.
type Report struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	// Tables hold the regenerated rows/series.
	Tables []*stats.Table
	// Values exposes key metrics ("mean_speedup", "BFV1", ...) for
	// programmatic checks. Speedups and reductions are fractions.
	Values map[string]float64
	// Notes carry caveats and observations.
	Notes []string
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s\n   paper: %s\n", r.ID, r.Title, r.Paper)
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Experiment is a regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3", Title: "Baseline exposed load-to-use stall characterisation (Fig. 3)", Run: Fig3},
		{ID: "table3", Title: "Microbenchmark speedup vs divergence factor (Table III)", Run: Table3},
		{ID: "fig12a", Title: "Per-application speedup across SI policies (Fig. 12a)", Run: Fig12a},
		{ID: "fig12b", Title: "Reduction in exposed load-to-use stalls (Fig. 12b)", Run: Fig12b},
		{ID: "fig13", Title: "Average speedup vs L1 miss latency (Fig. 13)", Run: Fig13},
		{ID: "fig14", Title: "Sensitivity to warp slots per SM (Fig. 14)", Run: Fig14},
		{ID: "fig15", Title: "Sensitivity to subwarps per warp / TST size (Fig. 15)", Run: Fig15},
		{ID: "icache", Title: "Instruction cache sizing (Section V-C4)", Run: ICache},
		{ID: "order", Title: "Ablation: divergent-path activation order (Section VI)", Run: Order},
		{ID: "yield", Title: "Ablation: subwarp-yield threshold (Section III-B)", Run: Yield},
		{ID: "dws", Title: "Extension: SI vs Dynamic Warp Subdivision (Section VII-B)", Run: DWS},
		{ID: "matrix", Title: "Workload-family x scheduler-policy x SI cross matrix", Run: Matrix},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// quickProfile shrinks an application profile for Quick runs.
func quickProfile(p workload.AppProfile, o Options) workload.AppProfile {
	if !o.Quick {
		return p
	}
	// Trim follow-on waves and bounce count but keep per-block occupancy
	// intact — occupancy is what calibrates SI's gains.
	resident := 512 / p.RegsPerThread // warps per block at the default 16K-register file
	if resident > 8 {
		resident = 8
	}
	if resident < 1 {
		resident = 1
	}
	if oneWave := 8 * resident; p.NumWarps > oneWave {
		p.NumWarps = oneWave
	}
	if p.Iterations > 2 {
		p.Iterations = 2
	}
	return p
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// job is one simulation to run. Jobs share kernels freely: a run never
// changes its kernel.
type job struct {
	key    string
	cfg    config.Config
	kernel *sm.Kernel
}

// runJobs executes simulations on a bounded worker pool and returns
// results keyed by job key. Results and the reported error are
// deterministic regardless of scheduling: every job's outcome lands in
// a slot indexed by submission order, and the error returned is the
// first failing job's in that order. The options' context cancels
// every in-flight simulation.
func runJobs(o Options, jobs []job) (map[string]gpu.Result, error) {
	ctx := o.ctx()
	slots := make([]gpu.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.workers())
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := j.cfg
			cfg.Check = o.check
			if o.Interpret {
				cfg.Compiled = false
			}
			if o.SchedPolicy != config.SchedLRR {
				cfg.SchedPolicy = o.SchedPolicy
			}
			slots[i], errs[i] = gpu.RunContext(ctx, cfg, j.kernel, 0)
		}(i, j)
	}
	wg.Wait()
	results := make(map[string]gpu.Result, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			return results, fmt.Errorf("experiments: %s: %w", j.key, errs[i])
		}
		results[j.key] = slots[i]
	}
	return results, nil
}

// policies enumerates the six SI configurations of Fig. 12a/13, in the
// paper's legend order.
type policy struct {
	label   string
	yield   bool
	trigger config.SelectTrigger
}

func policies() []policy {
	return []policy{
		{"SOS,N=1", false, config.TriggerAllStalled},
		{"Both,N=1", true, config.TriggerAllStalled},
		{"SOS,N>=0.5", false, config.TriggerHalfStalled},
		{"Both,N>=0.5", true, config.TriggerHalfStalled},
		{"SOS,N>0", false, config.TriggerAnyStalled},
		{"Both,N>0", true, config.TriggerAnyStalled},
	}
}

// bestSingle is the paper's single best configuration: Both, N>=0.5.
func bestSingle(cfg config.Config) config.Config {
	return cfg.WithSI(true, config.TriggerHalfStalled)
}

// namedKernel is one workload as an experiment runs it: built once
// (Quick-shrunk when asked) and shared by every configuration the
// experiment sweeps.
type namedKernel struct {
	name   string
	kernel *sm.Kernel
}

// buildApps builds the ten Table II traces, in paper order.
func buildApps(o Options) ([]namedKernel, error) {
	var apps []namedKernel
	for _, a := range workload.Apps() {
		p := quickProfile(a, o)
		k, err := workload.Megakernel(p)
		if err != nil {
			return nil, err // names the profile
		}
		apps = append(apps, namedKernel{p.Name, k})
	}
	return apps, nil
}

// appSweep runs baseline plus all six SI policies for every application
// at the given base configuration. Keys: "<app>/baseline",
// "<app>/<policy>".
func appSweep(apps []namedKernel, base config.Config, o Options) (map[string]gpu.Result, error) {
	var jobs []job
	for _, a := range apps {
		jobs = append(jobs, job{key: a.name + "/baseline", cfg: base, kernel: a.kernel})
		for _, pol := range policies() {
			jobs = append(jobs, job{
				key:    a.name + "/" + pol.label,
				cfg:    base.WithSI(pol.yield, pol.trigger),
				kernel: a.kernel,
			})
		}
	}
	return runJobs(o, jobs)
}

// sortedKeys returns map keys sorted lexicographically (for stable
// notes/diagnostics).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
