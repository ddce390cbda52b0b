package gpu

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

// The differential-equivalence layer: every workload must produce
// bit-identical results across (a) sequential vs parallel SM simulation
// and (b) must retire the same work with SI on vs off. These tests are
// the proof obligation behind RunWorkers' determinism contract.

// diffWorkload is one named kernel, built once and run by every cell
// that compares it — sequentially and from parallel subtests.
type diffWorkload struct {
	name   string
	kernel *sm.Kernel
}

// built wraps a generator's result, failing the test on a build error.
func built(t *testing.T, name string, k *sm.Kernel, err error) diffWorkload {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: build kernel: %v", name, err)
	}
	return diffWorkload{name: name, kernel: k}
}

// microbench4 is the 8-way divergence microbenchmark.
func microbench4(t *testing.T) diffWorkload {
	t.Helper()
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	return built(t, "microbench4", k, err)
}

// shrink trims an application profile the same way the experiments
// package does for Quick runs: keep per-block occupancy, drop follow-on
// waves and extra bounces, so the differential suite stays fast while
// still exercising divergence, RT traces, and both SMs.
func shrink(p workload.AppProfile) workload.AppProfile {
	resident := 512 / p.RegsPerThread
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

// diffWorkloads returns every application trace (shrunk) plus the
// divergence microbenchmark.
func diffWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	var ws []diffWorkload
	for _, app := range workload.Apps() {
		p := shrink(app)
		k, err := workload.Megakernel(p)
		ws = append(ws, built(t, p.Name, k, err))
	}
	return append(ws, microbench4(t))
}

// runWith simulates the workload's kernel and returns the result plus
// the final functional memory fingerprint.
func runWith(t *testing.T, w diffWorkload, cfg config.Config, workers int) (Result, uint64) {
	t.Helper()
	res, err := RunWorkers(cfg, w.kernel, workers)
	if err != nil {
		t.Fatalf("%s: RunWorkers(workers=%d): %v", w.name, workers, err)
	}
	return res, res.Memory.Fingerprint()
}

// TestParallelMatchesSequential asserts that for every workload and
// for SI off and on, a parallel run (forced >= 2 workers, independent
// of GOMAXPROCS) is bit-identical to a sequential run: the full
// counter set and the final architectural memory image match exactly.
func TestParallelMatchesSequential(t *testing.T) {
	cfgs := map[string]config.Config{
		"baseline": defaultConfig(),
		"si":       defaultConfig().WithSI(true, config.TriggerHalfStalled),
	}
	for _, w := range diffWorkloads(t) {
		for cname, cfg := range cfgs {
			w, cfg := w, cfg
			t.Run(w.name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				seqRes, seqFP := runWith(t, w, cfg, 1)
				parRes, parFP := runWith(t, w, cfg, 4)
				if seqRes.Counters != parRes.Counters {
					t.Errorf("counters diverge:\n  sequential %+v\n  parallel   %+v",
						seqRes.Counters, parRes.Counters)
				}
				if seqRes.Derived() != parRes.Derived() {
					t.Errorf("derived metrics diverge:\n  sequential %+v\n  parallel   %+v",
						seqRes.Derived(), parRes.Derived())
				}
				if seqFP != parFP {
					t.Errorf("final memory images diverge: sequential %#x, parallel %#x",
						seqFP, parFP)
				}
			})
		}
	}
}

// TestSIPreservesArchitecturalState asserts that Subwarp Interleaving
// is a pure scheduling optimisation: with SI on, every workload retires
// the same per-thread instruction count (Counters.ActiveThreads sums
// participating threads over every issue, i.e. thread-granularity
// retired work) and leaves the identical final memory image as the
// baseline. Cycle counts and stall decompositions legitimately differ,
// and so does IssuedInstrs by a small margin: SI regroups which threads
// travel together through reconvergence tails (a barrier can release
// participants while a sibling subwarp is STALLED rather than blocked),
// so the same thread-level work arrives at join blocks in a different
// number of subwarp-granularity pieces.
func TestSIPreservesArchitecturalState(t *testing.T) {
	base := defaultConfig()
	si := defaultConfig().WithSI(true, config.TriggerHalfStalled)
	for _, w := range diffWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			bRes, bFP := runWith(t, w, base, 0)
			sRes, sFP := runWith(t, w, si, 0)
			if bRes.Counters.ActiveThreads == 0 {
				t.Fatal("baseline retired no thread-instructions; comparison is vacuous")
			}
			if bRes.Counters.ActiveThreads != sRes.Counters.ActiveThreads {
				t.Errorf("thread-retired instruction counts diverge: baseline %d, SI %d",
					bRes.Counters.ActiveThreads, sRes.Counters.ActiveThreads)
			}
			if bFP != sFP {
				t.Errorf("final memory images diverge: baseline %#x, SI %#x", bFP, sFP)
			}
		})
	}
}

// TestParallelTraceMatchesSequential asserts the exported trace stream
// — the event sequence, drop count, and histogram set — is identical
// whether SMs simulate sequentially or concurrently.
func TestParallelTraceMatchesSequential(t *testing.T) {
	w := microbench4(t)
	traced := func(workers int) *trace.Recorder {
		rec := trace.NewRecorder()
		cfg := defaultConfig().WithSI(true, config.TriggerHalfStalled)
		cfg.Trace = rec
		runWith(t, w, cfg, workers)
		return rec
	}
	sameTrace(t, traced(4), traced(1), false)
}
