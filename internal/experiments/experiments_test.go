package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/testutil"
	"subwarpsim/internal/workload"
)

// full returns the full-size options used for shape assertions; the
// calibrated speedups depend on warm caches and full occupancy, so
// shape tests run the real workloads. They honor -short via skipLong.
func full() Options { return Options{check: testutil.Checked()} }

// quick returns the options of the golden corpus and the digests.
func quick() Options { return Options{Quick: true, check: testutil.Checked()} }

// skipLong skips a test of full-size runs under -short, and under
// -race, where the Quick runs put the same code under the detector in a
// fraction of the time.
func skipLong(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("full-size workloads; skipped in -short and -race builds")
	}
}

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// allRun is RunAll(All()) at one size, run once per test binary and
// read by every test that asks for a report of that size.
type allRun struct {
	once    sync.Once
	reports []*Report
	err     error
}

var fullRun, quickRun allRun

func (a *allRun) get(t *testing.T, o Options) []*Report {
	t.Helper()
	a.once.Do(func() { a.reports, _, a.err = RunAll(o, All()) })
	if a.err != nil {
		t.Fatal(a.err)
	}
	return a.reports
}

func reportByID(t *testing.T, reports []*Report, id string) *Report {
	t.Helper()
	for _, r := range reports {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no report %q", id)
	return nil
}

// fullReport is id's report from the shared full-size run.
func fullReport(t *testing.T, id string) *Report {
	t.Helper()
	skipLong(t)
	return reportByID(t, fullRun.get(t, full()), id)
}

// quickReport is id's report from the shared Quick run.
func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	return reportByID(t, quickRun.get(t, quick()), id)
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.declare == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig3", "table3", "fig12a", "fig12b", "fig13", "fig14", "fig15", "icache"} {
		if !ids[want] {
			t.Errorf("missing paper artifact %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig3")
	if !ok || e.ID != "fig3" {
		t.Fatal("ByID(fig3) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) should fail")
	}
}

func TestFig3Shape(t *testing.T) {
	r := fullReport(t, "fig3")
	// Every trace has a row; stall fractions are sane; divergent never
	// exceeds total.
	for _, name := range workload.AppNames() {
		tot := r.Values[name+"/total"]
		div := r.Values[name+"/divergent"]
		if tot <= 0 || tot >= 1 {
			t.Errorf("%s: total stall frac %.2f out of range", name, tot)
		}
		if div < 0 || div > tot {
			t.Errorf("%s: divergent %.2f vs total %.2f", name, div, tot)
		}
	}
	// Paper shape: BFV traces are divergent-stall dominated; the Coll
	// traces stall mostly in convergent code.
	bfvShare := r.Values["BFV1/divergent"] / r.Values["BFV1/total"]
	collShare := r.Values["Coll1/divergent"] / r.Values["Coll1/total"]
	if bfvShare <= collShare {
		t.Errorf("BFV1 divergent share (%.2f) should exceed Coll1's (%.2f)", bfvShare, collShare)
	}
	if r.Values["mean/total"] < 0.2 {
		t.Errorf("mean total stalls %.2f: traces should be stall-heavy", r.Values["mean/total"])
	}
	if len(r.Tables) == 0 || r.Tables[0].NumRows() != 11 {
		t.Error("fig3 table should have 10 app rows + mean")
	}
}

func TestTable3Shape(t *testing.T) {
	r := fullReport(t, "table3")
	// Monotone growth through 16-way divergence...
	prev := 1.0
	for _, d := range []int{2, 4, 8, 16} {
		sp := r.Values[sprintf("speedup_%d", d)]
		if sp <= prev {
			t.Errorf("divergence %d: speedup %.2f did not grow (prev %.2f)", d, sp, prev)
		}
		prev = sp
	}
	// ...and a fetch-stall-driven taper at 32-way (Table III: 12.66 < 15.22).
	if r.Values["speedup_32"] >= r.Values["speedup_16"] {
		t.Errorf("32-way (%.2f) should taper below 16-way (%.2f)",
			r.Values["speedup_32"], r.Values["speedup_16"])
	}
	if r.Values["fetch_32"] <= r.Values["fetch_2"] {
		t.Error("fetch stalls should rise sharply with 32-way divergence")
	}
	// 2-way divergence halves the serialization: close to 2x.
	if sp := r.Values["speedup_2"]; sp < 1.5 || sp > 2.2 {
		t.Errorf("2-way speedup %.2f, want ~2x", sp)
	}
}

func TestFig12aShape(t *testing.T) {
	r := fullReport(t, "fig12a")
	// The paper's winners and losers: BFV traces gain most, Coll1 least.
	best := "Both,N>=0.5"
	if r.Values["BFV1/"+best] < r.Values["Coll1/"+best] {
		t.Error("BFV1 should gain more than Coll1")
	}
	if r.Values["BFV2/"+best] < 0.05 {
		t.Errorf("BFV2 gain %.3f too small", r.Values["BFV2/"+best])
	}
	if r.Values["Coll1/"+best] > 0.08 {
		t.Errorf("Coll1 gain %.3f too large (paper ~1%%)", r.Values["Coll1/"+best])
	}
	// Mean in the paper's ballpark (6.3%): allow a generous band.
	mean := r.Values["mean/"+best]
	if mean < 0.01 || mean > 0.18 {
		t.Errorf("mean gain %.3f outside plausible band around 6.3%%", mean)
	}
	// Yield ("Both") should on average beat plain SOS at the same trigger.
	if r.Values["mean/Both,N>=0.5"] < r.Values["mean/SOS,N=1"] {
		t.Error("Both,N>=0.5 should beat the most conservative SOS,N=1 on average")
	}
	// BestOf dominates every individual policy per app.
	for _, name := range workload.AppNames() {
		for _, p := range policies() {
			if r.Values[name+"/"+p.label] > r.Values[name+"/BestOf"]+1e-9 {
				t.Errorf("%s: policy %s above BestOf", name, p.label)
			}
		}
	}
}

func TestFig12bShape(t *testing.T) {
	r := fullReport(t, "fig12b")
	// SI must reduce divergent stalls more than total stalls (it only
	// attacks divergent-region serialization).
	if r.Values["mean/divergent"] <= r.Values["mean/total"] {
		t.Errorf("divergent reduction (%.2f) should exceed total (%.2f)",
			r.Values["mean/divergent"], r.Values["mean/total"])
	}
	if r.Values["mean/divergent"] <= 0 {
		t.Error("mean divergent reduction should be positive")
	}
	// Coll1 total reduction small (its stalls are convergent).
	if r.Values["Coll1/total"] > r.Values["BFV1/total"] {
		t.Error("BFV1 should see a larger total-stall reduction than Coll1")
	}
}

func TestFig13Shape(t *testing.T) {
	r := fullReport(t, "fig13")
	// SI's benefit grows with L1 miss latency (paper: 4.2/6.6/7.6 BestOf).
	b300 := r.Values["lat300/BestOf"]
	b600 := r.Values["lat600/BestOf"]
	b900 := r.Values["lat900/BestOf"]
	if !(b300 < b600 && b600 < b900) {
		t.Errorf("BestOf not monotone in latency: %.3f %.3f %.3f", b300, b600, b900)
	}
}

func TestFig15Shape(t *testing.T) {
	r := fullReport(t, "fig15")
	// Small TSTs must retain most of the unlimited upside (paper: 2
	// subwarps capture 2/3, 4 subwarps 82%; our synthetic traces
	// saturate even earlier) and never beat it by much.
	unlimited := r.Values["mean/tst32"]
	if unlimited <= 0 {
		t.Fatalf("unlimited mean %.3f", unlimited)
	}
	if r.Values["mean/tst2"] < 0.5*unlimited {
		t.Errorf("2-entry TST mean %.3f below half of unlimited %.3f",
			r.Values["mean/tst2"], unlimited)
	}
	if r.Values["mean/tst4"] < 0.7*unlimited {
		t.Errorf("4-entry TST mean %.3f below 70%% of unlimited %.3f",
			r.Values["mean/tst4"], unlimited)
	}
}

func TestICacheShape(t *testing.T) {
	r := fullReport(t, "icache")
	if r.Values["mean/big"] <= 0 {
		t.Error("upsized-cache mean should be positive")
	}
	// Smaller caches must not *help* SI (paper: 4.5% vs 6.3%).
	if r.Values["mean/small"] > r.Values["mean/big"]*1.15 {
		t.Errorf("4x smaller caches improved SI: %.3f vs %.3f",
			r.Values["mean/small"], r.Values["mean/big"])
	}
}

func TestReportRendering(t *testing.T) {
	r := fullReport(t, "fig3")
	s := r.String()
	for _, want := range []string{"fig3", "paper:", "BFV1", "mean"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestQuickProfileShrinks(t *testing.T) {
	p, _ := workload.ProfileByName("AV1")
	q := quickProfile(p, Options{Quick: true})
	if q.NumWarps >= p.NumWarps {
		t.Error("quick profile should shrink warps")
	}
	same := quickProfile(p, Options{})
	if same.NumWarps != p.NumWarps {
		t.Error("non-quick profile must be unchanged")
	}
}

// TestPlanRunsEachSimulationOnce: equal declarations share one result
// slot and one simulation, a profile is built into one kernel per plan,
// and the whole report declares its runs over fifteen megakernels.
func TestPlanRunsEachSimulationOnce(t *testing.T) {
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	run := runContext
	defer func() { runContext = run }()
	runContext = func(ctx context.Context, cfg config.Config, k *sm.Kernel, workers int) (gpu.Result, error) {
		runs.Add(1)
		return gpu.RunContext(ctx, cfg, k, workers)
	}

	p := newPlan(full())
	a, b := p.sim(config.Default(), k), p.sim(config.Default(), k)
	si := p.sim(bestSingle(config.Default()), k)
	if a != b || a == si {
		t.Fatal("equal declarations must share a slot and distinct ones must not")
	}
	if err := p.exec(); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("three declarations of two runs simulated %d times, want 2", n)
	}
	if a.Counters.Cycles == 0 || si.Counters.Cycles == 0 {
		t.Error("exec left a slot empty")
	}

	for _, o := range []Options{full(), quick()} {
		p := newPlan(o)
		prof := quickProfile(workload.Apps()[0], o)
		if p.kernel(prof) != p.kernel(prof) {
			t.Fatal("one profile built into two kernels")
		}
		for _, e := range All() {
			e.declare(p)
		}
		if p.err != nil {
			t.Fatal(p.err)
		}
		if len(p.kernels) != 15 || p.declared != 693 || len(p.runs) != 453 {
			t.Errorf("Quick=%v: %d megakernels, %d runs declared, %d distinct; want 15 (ten traces, five DWS register variants), 693, 453",
				o.Quick, len(p.kernels), p.declared, len(p.runs))
		}
	}
}

// TestPlanPropagatesErrors: a failing run's error names its program and
// policy, and it is the first failing declaration's whatever the pool's
// interleaving. A kernel that fails to build fails the plan before it
// simulates anything.
func TestPlanPropagatesErrors(t *testing.T) {
	good, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	warpless := func(name string) *sm.Kernel { // the run rejects it
		return &sm.Kernel{Program: isa.NewBuilder(name).Exit().MustBuild(), WarpsPerCTA: 1, Memory: mem.NewMemory()}
	}
	p := newPlan(full())
	p.sim(config.Default(), good)
	p.sim(config.Default(), warpless("bad"))
	p.sim(config.Default(), warpless("worse"))
	err = p.exec()
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "bad under baseline") || strings.Contains(err.Error(), "worse") {
		t.Errorf("error should name the first failing declaration: %v", err)
	}

	o := full()
	o.Workloads = []string{"nope"}
	matrixOnly, _ := ByID("matrix")
	if _, _, err := RunAll(o, []Experiment{matrixOnly}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("a family that does not build: err = %v", err)
	}
}

func TestPlanHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(Options{Workers: 1, Context: ctx, check: testutil.Checked()})
	p.sim(config.Default(), k)
	err = p.exec()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), k.Program.Name) {
		t.Errorf("error should name the run: %v", err)
	}
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func TestDWSShape(t *testing.T) {
	r := fullReport(t, "dws")
	// Section VII-B: SI beats DWS on average, decisively so on traces
	// with few free warp slots.
	if r.Values["mean/dws"] >= r.Values["mean/si"] {
		t.Errorf("DWS mean %.3f should trail SI mean %.3f",
			r.Values["mean/dws"], r.Values["mean/si"])
	}
	// Fully occupied traces (8 resident warps, 0 free slots): DWS is
	// nearly inert, SI still works.
	for _, name := range []string{"AV1", "AV2", "MC"} {
		if r.Values[name+"/dws"] > 0.02 {
			t.Errorf("%s: DWS %.3f with zero free slots should be near zero",
				name, r.Values[name+"/dws"])
		}
	}
	// The SI-DWS gap narrows as register pressure frees slots.
	if r.Values["bfv1_regs64/gap"] <= r.Values["bfv1_regs255/gap"] {
		t.Errorf("gap at 0 free slots (%.3f) should exceed gap at 6 free slots (%.3f)",
			r.Values["bfv1_regs64/gap"], r.Values["bfv1_regs255/gap"])
	}
}
