package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/testutil"
	"subwarpsim/internal/workload"
)

// full returns the full-size options used for shape assertions; the
// calibrated speedups depend on warm caches and full occupancy, so
// shape tests run the real workloads. They honor -short via skipLong.
func full() Options { return Options{check: testutil.Checked()} }

func skipLong(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("shape test runs full-size workloads; skipped in -short mode")
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
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
	skipLong(t)
	r, err := Fig3(full())
	if err != nil {
		t.Fatal(err)
	}
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
	skipLong(t)
	r, err := Table3(full())
	if err != nil {
		t.Fatal(err)
	}
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
	skipLong(t)
	r, err := Fig12a(full())
	if err != nil {
		t.Fatal(err)
	}
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
	skipLong(t)
	r, err := Fig12b(full())
	if err != nil {
		t.Fatal(err)
	}
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
	skipLong(t)
	r, err := Fig13(full())
	if err != nil {
		t.Fatal(err)
	}
	// SI's benefit grows with L1 miss latency (paper: 4.2/6.6/7.6 BestOf).
	b300 := r.Values["lat300/BestOf"]
	b600 := r.Values["lat600/BestOf"]
	b900 := r.Values["lat900/BestOf"]
	if !(b300 < b600 && b600 < b900) {
		t.Errorf("BestOf not monotone in latency: %.3f %.3f %.3f", b300, b600, b900)
	}
}

func TestFig15Shape(t *testing.T) {
	skipLong(t)
	r, err := Fig15(full())
	if err != nil {
		t.Fatal(err)
	}
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
	skipLong(t)
	r, err := ICache(full())
	if err != nil {
		t.Fatal(err)
	}
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
	skipLong(t)
	r, err := Fig3(full())
	if err != nil {
		t.Fatal(err)
	}
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

// TestRunJobsPropagatesErrors: a failing job's error names its key,
// and it is the first failing job in submission order that is reported
// whatever the pool's interleaving.
func TestRunJobsPropagatesErrors(t *testing.T) {
	good, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runJobs(full(), []job{
		{key: "fine", cfg: config.Default(), kernel: good},
		{key: "bad", cfg: config.Default(), kernel: &sm.Kernel{}}, // no program: the run rejects it
		{key: "worse", cfg: config.Default(), kernel: &sm.Kernel{}},
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "bad") || strings.Contains(err.Error(), "worse") {
		t.Errorf("error should name the first failing job: %v", err)
	}
}

func TestRunJobsHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runJobs(Options{Workers: 1, Context: ctx, check: testutil.Checked()}, []job{{
		key: "cancelled", cfg: config.Default(), kernel: k,
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error should name the job: %v", err)
	}
}

func TestSortedKeys(t *testing.T) {
	keys := sortedKeys(map[string]float64{"b": 1, "a": 2, "c": 3})
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("sortedKeys = %v", keys)
	}
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func TestDWSShape(t *testing.T) {
	skipLong(t)
	r, err := DWS(full())
	if err != nil {
		t.Fatal(err)
	}
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
