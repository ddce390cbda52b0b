package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the golden corpus from the current simulator
// output instead of diffing against it:
//
//	go test ./internal/experiments -run TestGolden -args -update-golden
//
// (or tools/regen-golden.sh). Regenerate deliberately — the corpus is
// the recorded Fig. 3 / Table III metric set, and silent drift there is
// exactly what this test exists to catch.
var updateGolden = flag.Bool("update-golden", false, "rewrite results/golden/*.json from current output")

// goldenDir is the corpus location relative to this package.
const goldenDir = "../../results/golden"

// goldenTolerance is the relative error allowed per metric. Simulation
// is deterministic, so the slack only absorbs float formatting of the
// JSON round-trip, not behaviour drift.
const goldenTolerance = 1e-6

// checkGolden diffs got against the named golden file, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, name string, got map[string]float64) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", goldenDir, err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		t.Logf("rewrote %s (%d metrics)", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden corpus %s: %v (regenerate with tools/regen-golden.sh)", path, err)
	}
	var want map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: metric %q missing from current output", name, key)
			continue
		}
		if !withinTolerance(g, w) {
			t.Errorf("%s: %s = %v, golden %v (rel err %.3g > %.0g)",
				name, key, g, w, relErr(g, w), goldenTolerance)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: new metric %q not in golden corpus (regenerate with tools/regen-golden.sh)", name, key)
		}
	}
}

func withinTolerance(got, want float64) bool {
	return relErr(got, want) <= goldenTolerance
}

func relErr(got, want float64) float64 {
	diff := math.Abs(got - want)
	if scale := math.Max(math.Abs(got), math.Abs(want)); scale > 1 {
		return diff / scale
	}
	return diff
}

// TestGoldenFig3 pins the per-application exposed-stall
// characterisation (the paper's Fig. 3 counters) against the recorded
// corpus.
func TestGoldenFig3(t *testing.T) {
	checkGolden(t, "fig3.json", quickReport(t, "fig3").Values)
}

// TestGoldenTable3 pins the microbenchmark speedups and fetch-overhead
// fractions (Table III) against the recorded corpus.
func TestGoldenTable3(t *testing.T) {
	checkGolden(t, "table3.json", quickReport(t, "table3").Values)
}

// TestGoldenMatrix pins every workload-family x scheduler-policy x SI
// cell of the cross matrix against the recorded corpus. Any change to
// a policy's tie-order rules, a generator's kernel, or the SI
// machinery shows up as a cell-level diff here.
func TestGoldenMatrix(t *testing.T) {
	checkGolden(t, "matrix.json", quickReport(t, "matrix").Values)
}
