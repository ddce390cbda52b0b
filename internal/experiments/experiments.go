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

// Experiment is a regenerable paper artifact. It declares the
// simulations it needs on a plan and renders its report from their
// results once the plan has run.
type Experiment struct {
	ID      string
	Title   string
	declare func(*plan) (render func() *Report)
}

// Run regenerates the experiment alone.
func (e Experiment) Run(o Options) (*Report, error) {
	reports, _, err := RunAll(o, []Experiment{e})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// Tally counts a plan's simulations: those its experiments declared,
// and the distinct (kernel, config) runs among them, each simulated once.
type Tally struct{ Declared, Simulated int }

// RunAll regenerates the experiments over one plan, so a simulation
// that several of them declare runs once. Reports come back in the
// order given; the error is the first failing declaration's.
func RunAll(o Options, es []Experiment) ([]*Report, Tally, error) {
	p := newPlan(o)
	renders := make([]func() *Report, len(es))
	for i, e := range es {
		renders[i] = e.declare(p)
	}
	tally := Tally{p.declared, len(p.runs)}
	if err := p.exec(); err != nil {
		return nil, tally, err
	}
	reports := make([]*Report, len(es))
	for i, render := range renders {
		reports[i] = render()
	}
	return reports, tally, nil
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Baseline exposed load-to-use stall characterisation (Fig. 3)", fig3},
		{"table3", "Microbenchmark speedup vs divergence factor (Table III)", table3},
		{"fig12a", "Per-application speedup across SI policies (Fig. 12a)", fig12a},
		{"fig12b", "Reduction in exposed load-to-use stalls (Fig. 12b)", fig12b},
		{"fig13", "Average speedup vs L1 miss latency (Fig. 13)", fig13},
		{"fig14", "Sensitivity to warp slots per SM (Fig. 14)", fig14},
		{"fig15", "Sensitivity to subwarps per warp / TST size (Fig. 15)", fig15},
		{"icache", "Instruction cache sizing (Section V-C4)", icache},
		{"order", "Ablation: divergent-path activation order (Section VI)", order},
		{"yield", "Ablation: subwarp-yield threshold (Section III-B)", yield},
		{"dws", "Extension: SI vs Dynamic Warp Subdivision (Section VII-B)", dws},
		{"matrix", "Workload-family x scheduler-policy x SI cross matrix", matrix},
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
	if oneWave := 8 * residentWarps(p.RegsPerThread); p.NumWarps > oneWave {
		p.NumWarps = oneWave
	}
	if p.Iterations > 2 {
		p.Iterations = 2
	}
	return p
}

// plan is the simulations a set of experiments declared. Each
// AppProfile is built into one kernel, each distinct (kernel, config) is
// one run with one result slot, and exec simulates every run once.
type plan struct {
	o        Options
	kernels  map[workload.AppProfile]*sm.Kernel
	slots    map[simKey]*gpu.Result
	runs     []simKey // distinct, in order of first declaration
	declared int
	err      error // the first kernel build error
}

type simKey struct {
	k   *sm.Kernel
	cfg config.Config
}

func newPlan(o Options) *plan {
	return &plan{o: o, kernels: map[workload.AppProfile]*sm.Kernel{}, slots: map[simKey]*gpu.Result{}}
}

// runContext is gpu.RunContext; a test counts the runs through it.
var runContext = gpu.RunContext

// kernel returns the plan's megakernel for prof, built on first use.
func (p *plan) kernel(prof workload.AppProfile) *sm.Kernel {
	k, ok := p.kernels[prof]
	if !ok {
		k = p.must(workload.Megakernel(prof))
		p.kernels[prof] = k
	}
	return k
}

// must returns k, keeping err as the plan's when it is the first build
// error: exec then fails before simulating anything.
func (p *plan) must(k *sm.Kernel, err error) *sm.Kernel {
	if err != nil && p.err == nil {
		p.err = err
	}
	return k
}

// traces returns the ten Table II traces' kernels in paper order,
// Quick-shrunk when the options ask.
func (p *plan) traces() []*sm.Kernel {
	var ks []*sm.Kernel
	for _, a := range workload.Apps() {
		ks = append(ks, p.kernel(quickProfile(a, p.o)))
	}
	return ks
}

// sim declares a run of k under cfg, as the options amend it, and
// returns the slot exec fills with its result, counters only: the
// memory image is dropped. Equal declarations share one slot.
func (p *plan) sim(cfg config.Config, k *sm.Kernel) *gpu.Result {
	cfg.Check = p.o.check
	if p.o.SchedPolicy != config.SchedLRR {
		cfg.SchedPolicy = p.o.SchedPolicy
	}
	p.declared++
	key := simKey{k, cfg}
	if res, ok := p.slots[key]; ok {
		return res
	}
	res := new(gpu.Result)
	p.slots[key] = res
	p.runs = append(p.runs, key)
	return res
}

// exec simulates every distinct run on a bounded worker pool. The
// reported error is deterministic whatever the scheduling: the first
// failing run in declaration order. The options' context cancels every
// in-flight simulation.
func (p *plan) exec() error {
	if p.err != nil {
		return p.err
	}
	ctx := p.o.ctx()
	errs := make([]error, len(p.runs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.o.workers())
	for i, key := range p.runs {
		res := p.slots[key]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			*res, errs[i] = runContext(ctx, key.cfg, key.k, 0)
			res.Memory = nil // a whole report's images would triple its peak RSS
		}()
	}
	wg.Wait()
	for i, key := range p.runs {
		if errs[i] != nil {
			return fmt.Errorf("experiments: %s under %s: %w", key.k.Program.Name, key.cfg.PolicyName(), errs[i])
		}
	}
	return nil
}

// pair is a declared baseline run and a variant of it.
type pair struct{ base, with *gpu.Result }

// vs declares k under base once and under each of cfgs: one pair per
// cfg, in order.
func (p *plan) vs(k *sm.Kernel, base config.Config, cfgs ...config.Config) []pair {
	b := p.sim(base, k)
	pairs := make([]pair, len(cfgs))
	for i, cfg := range cfgs {
		pairs[i] = pair{b, p.sim(cfg, k)}
	}
	return pairs
}

// speedup is the variant's speedup over the baseline, read after exec.
func (s pair) speedup() float64 { return stats.Speedup(s.base.Counters, s.with.Counters) }

// best declares every trace under cfg and under bestSingle(cfg).
func (p *plan) best(cfg config.Config) []pair {
	var pairs []pair
	for _, k := range p.traces() {
		pairs = append(pairs, p.vs(k, cfg, bestSingle(cfg))...)
	}
	return pairs
}

// meanSpeedup is the mean of one pair per trace's speedups, summed in
// paper order.
func meanSpeedup(pairs []pair) float64 {
	var sum float64
	for _, s := range pairs {
		sum += s.speedup()
	}
	return sum / float64(len(workload.AppNames()))
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

// sweep declares every trace under base and under each of the six SI
// policies over base: one row of pairs per trace, in policies() order.
func (p *plan) sweep(base config.Config) [][]pair {
	var cfgs []config.Config
	for _, pol := range policies() {
		cfgs = append(cfgs, base.WithSI(pol.yield, pol.trigger))
	}
	var rows [][]pair
	for _, k := range p.traces() {
		rows = append(rows, p.vs(k, base, cfgs...))
	}
	return rows
}

// bestSingle is the paper's single best configuration: Both, N>=0.5.
func bestSingle(cfg config.Config) config.Config {
	return cfg.WithSI(true, config.TriggerHalfStalled)
}
