package gpu

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

var updateEngine = flag.Bool("update-engine", false,
	"rewrite testdata/engine_counts.txt from the current run loop")

// enginePin holds the Engine block of every pinned row, one per line.
const enginePin = "testdata/engine_counts.txt"

// engineRow is one pinned (kernel, config) pair.
type engineRow struct {
	name   string
	kernel *sm.Kernel
	cfg    config.Config
}

// engineRows are the rows of the pin: the ten Table II traces at full
// size under the baseline and under SI (the any-stalled trigger, no
// yield), the three generator families and the 8-way divergence
// microbenchmark, each in the served regime (fast-forward on, Check
// off).
func engineRows(t *testing.T) []engineRow {
	t.Helper()
	base := config.Default()
	si := base.WithSI(false, config.TriggerAnyStalled)
	var rows []engineRow
	for _, app := range workload.Apps() {
		k, err := workload.Megakernel(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		rows = append(rows, engineRow{app.Name + " baseline", k, base}, engineRow{app.Name + " SI", k, si})
	}
	for _, name := range []string{"bfs", "gemm", "texture"} {
		k, err := workload.BuildByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, engineRow{name + " baseline", k, base})
	}
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	return append(rows, engineRow{"microbench4 baseline", k, base})
}

// TestEngineCountsMatchPin runs every row once and compares its Engine
// block with testdata/engine_counts.txt exactly, like a golden. A change
// to the run loop that moves it regenerates the file
// (-args -update-engine) and states the delta.
func TestEngineCountsMatchPin(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size traces")
	}
	var b strings.Builder
	for _, r := range engineRows(t) {
		res, err := RunWorkers(r.cfg, r.kernel, 0)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", r.name, res.Engine)
	}
	got := b.String()
	if *updateEngine {
		if err := os.WriteFile(enginePin, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(enginePin)
	if err != nil {
		t.Fatalf("%v (regenerate with -args -update-engine)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d rows, pin has %d:\n%s", len(gotLines)-1, len(wantLines)-1, got)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("engine block moved:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestEngineCountsAreARunProperty: the Engine block of a run is the same
// for one worker and four, with Config.Check on and off, and with a
// recorder attached or not, on every pinned row.
// TestExcusedStepsAreNoOps quantifies the same over the shrunk corpus
// and every scheduler policy.
func TestEngineCountsAreARunProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size traces")
	}
	for _, r := range engineRows(t) {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			want, err := RunWorkers(r.cfg, r.kernel, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name    string
				check   bool
				record  bool
				workers int
			}{
				{"four workers", false, false, 4},
				{"checked", true, false, 1},
				{"recorded", false, true, 4},
			} {
				cfg := r.cfg
				cfg.Check = v.check
				if v.record {
					cfg.Trace = trace.NewRecorder()
				}
				got, err := RunWorkers(cfg, r.kernel, v.workers)
				if err != nil {
					t.Fatal(err)
				}
				if got.Engine != want.Engine {
					t.Errorf("%s: engine block moved:\n  got  %s\n  want %s", v.name, got.Engine, want.Engine)
				}
			}
		})
	}
}
