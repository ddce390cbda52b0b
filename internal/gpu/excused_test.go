package gpu

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

// The run loop steps a processing block only at cycles where its step
// can change something (internal/sm/fastforward.go). Config.Check
// steps every block at every visited cycle instead — lock-step — and
// asserts each excused step's prediction; this file holds the other
// half of the proof: with Check off the excused cycles are accounted in
// closed form, and the result must not move by one count.

// excusedWorkloads is what the comparison quantifies over: the golden
// corpus's ten traces (shrunk) and microbenchmark, the three generator
// families, the convergent end of Table III, and the kernels under
// examples/submissions.
func excusedWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	ws := append(diffWorkloads(t), smallGenWorkloads(t)...)
	k, err := workload.Microbench(workload.DefaultMicrobench(32))
	ws = append(ws, built(t, "microbench32", k, err))
	paths, err := filepath.Glob("../../examples/submissions/*.asm")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example kernels found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		prog, err := isa.Assemble(name, string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ws = append(ws, diffWorkload{name: name, kernel: &sm.Kernel{
			Program: prog, NumWarps: 24, WarpsPerCTA: 2, Memory: mem.NewMemory(),
		}})
	}
	return ws
}

// excusedConfigs are paper-sweep's four policies plus the two
// configurations in which a sleeping block owes TSTOverflow counts: a
// two-entry TST (Fig. 15) and DWS. A sleeper charged per cycle instead
// of per visited cycle differs from lock-step only there.
func excusedConfigs() map[string]config.Config {
	tinyTST := config.Default().WithSI(true, config.TriggerAnyStalled)
	tinyTST.SI.MaxSubwarps = 2
	return map[string]config.Config{
		"baseline":  config.Default(),
		"SOS half":  config.Default().WithSI(false, config.TriggerHalfStalled),
		"Both half": config.Default().WithSI(true, config.TriggerHalfStalled),
		"Both any":  config.Default().WithSI(true, config.TriggerAnyStalled),
		"tinyTST":   tinyTST,
		"dws":       config.Default().WithDWS(),
	}
}

// TestExcusedStepsAreNoOps runs every workload × configuration ×
// scheduler policy × regime checked (lock-step, one worker) and
// unchecked (one and four workers) and requires identical counters and
// memory images; for the LRR cells it also attaches a recorder with a
// time series and requires identical event streams, histograms and
// windows.
func TestExcusedStepsAreNoOps(t *testing.T) {
	var overflowed atomic.Bool
	t.Cleanup(func() {
		if !overflowed.Load() && !t.Failed() {
			t.Error("no cell counted a TSTOverflow: the per-visited-cycle debt was never exercised")
		}
	})
	for _, w := range excusedWorkloads(t) {
		for cname, cfg := range excusedConfigs() {
			w, cname, cfg := w, cname, cfg
			t.Run(w.name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				for _, pol := range schedPolicies() {
					for _, compiled := range []bool{true, false} {
						cfg.SchedPolicy, cfg.Compiled = pol, compiled
						cfg.Check = true
						want, wantFP := runWith(t, w, cfg, 1)
						if want.Counters.TSTOverflow > 0 {
							overflowed.Store(true)
						}
						cfg.Check = false
						for _, workers := range []int{1, 4} {
							got, gotFP := runWith(t, w, cfg, workers)
							if got.Counters != want.Counters {
								t.Errorf("%v compiled=%v workers=%d: counters differ:\n  unchecked %+v\n  checked   %+v",
									pol, compiled, workers, got.Counters, want.Counters)
							}
							if gotFP != wantFP {
								t.Errorf("%v compiled=%v workers=%d: memory images differ: unchecked %#x, checked %#x",
									pol, compiled, workers, gotFP, wantFP)
							}
						}
					}
				}
				cfg.SchedPolicy, cfg.Compiled = config.SchedLRR, true
				traced := func(check bool) *trace.Recorder {
					rec := trace.NewRecorder()
					rec.Series = stats.NewTimeSeries(64)
					cfg.Check, cfg.Trace = check, rec
					runWith(t, w, cfg, 1)
					return rec
				}
				sameTrace(t, traced(false), traced(true)) // unchecked against checked
			})
		}
	}
}

// sameTrace requires two recorders to hold the same event stream,
// histograms and — when a time series is attached — windows.
func sameTrace(t *testing.T, got, want *trace.Recorder) {
	t.Helper()
	if want.Len() == 0 {
		t.Fatal("the reference run recorded no events; the comparison is vacuous")
	}
	if got.Len() != want.Len() || got.Dropped() != want.Dropped() {
		t.Fatalf("event counts differ: got %d (+%d dropped), want %d (+%d dropped)",
			got.Len(), got.Dropped(), want.Len(), want.Dropped())
	}
	ge, we := got.Events(), want.Events()
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("event %d differs:\n  got  %s\n  want %s", i, ge[i], we[i])
		}
	}
	gh, wh := got.Histograms(), want.Histograms()
	for i := range wh {
		if gh[i].String() != wh[i].String() {
			t.Errorf("histogram %d differs:\n  got:\n%s\n  want:\n%s", i, gh[i], wh[i])
		}
	}
	if want.Series == nil {
		return
	}
	gw, ww := got.Series.Windows(), want.Series.Windows()
	if len(gw) != len(ww) {
		t.Fatalf("series lengths differ: got %d windows, want %d", len(gw), len(ww))
	}
	for i := range ww {
		if gw[i] != ww[i] {
			t.Errorf("series window %d differs: got %+v, want %+v", i, gw[i], ww[i])
		}
	}
}
