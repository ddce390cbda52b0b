package gpu

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/testutil"
	"subwarpsim/internal/workload"
)

// The two-regime differential layer: there is one executor, and
// Config.Compiled only decides whether it fast-forwards basic blocks.
// The fast-forward regime must be bit-identical to the stepped regime
// (Compiled=false, the reference these tests call "interpreted") on
// every workload, configuration, and observable — counters, derived
// metrics, final memory images — so what is under test is the
// soundness of Block.plan's run case and ffCommit: the fast-forward
// side runs as it is served, its blocks keeping their own time, and
// the stepped side in checked lock-step. These tests are the proof
// obligation behind Config.Compiled being excluded from the
// result-cache key. Trace streams need no regime comparison: attaching
// a recorder forces the stepped regime whatever Compiled says (they
// stay pinned by TestParallelTraceMatchesSequential and
// internal/sm/trace_test.go).

// engineConfigs are the policy points the two-mode comparison quantifies
// over: the baseline, both SI modes (yield exercises the FFLen vs
// FFLenYieldInert table split), DWS (eager selection stresses a run's
// no-select-waiting condition), and randomized activation order
// (per-divergence RNG draws must happen on identical cycles in both
// modes).
func engineConfigs() map[string]config.Config {
	rnd := defaultConfig().WithSI(true, config.TriggerHalfStalled)
	rnd.Order = config.OrderRandom
	return map[string]config.Config{
		"baseline": defaultConfig(),
		"sos":      defaultConfig().WithSI(false, config.TriggerAnyStalled),
		"both":     defaultConfig().WithSI(true, config.TriggerHalfStalled),
		"dws":      defaultConfig().WithDWS(),
		"random":   rnd,
	}
}

// interpreted returns the configuration with fast-forward off: the
// stepped reference regime (-compile=off), under Config.Check.
func interpreted(cfg config.Config) config.Config {
	cfg.Compiled, cfg.Check = false, testutil.Checked()
	return cfg
}

// served returns the configuration with fast-forward on and
// Config.Check off: the loop every caller outside the tests runs.
func served(cfg config.Config) config.Config {
	cfg.Compiled, cfg.Check = true, false
	return cfg
}

// TestCompiledMatchesInterpreted runs every differential workload under
// every engine configuration in both execution modes and requires
// bit-identical counters, derived metrics, and final memory images.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		for cname, cfg := range engineConfigs() {
			w, cfg := w, cfg
			t.Run(w.name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				cRes, cFP := runWith(t, w, served(cfg), 0)
				iRes, iFP := runWith(t, w, interpreted(cfg), 0)
				if cRes.Counters != iRes.Counters {
					t.Errorf("counters diverge:\n  compiled    %+v\n  interpreted %+v",
						cRes.Counters, iRes.Counters)
				}
				if cRes.Derived() != iRes.Derived() {
					t.Errorf("derived metrics diverge:\n  compiled    %+v\n  interpreted %+v",
						cRes.Derived(), iRes.Derived())
				}
				if cFP != iFP {
					t.Errorf("final memory images diverge: compiled %#x, interpreted %#x",
						cFP, iFP)
				}
			})
		}
	}
}

// TestCompiledMatchesInterpretedProperty extends the comparison to the
// randomized divergent corpus (the deterministic property-test
// generator behind FuzzRun): generated kernels full of BSSY/BSYNC
// regions, lane-divergent loops, BRX dispatches, and scoreboarded
// loads must retire identically in both modes under every SI policy.
func TestCompiledMatchesInterpretedProperty(t *testing.T) {
	cfgs := siConfigs()
	cfgs["baseline"] = defaultConfig()
	cfgs["dws"] = defaultConfig().WithDWS()
	for seed := int64(0); seed < 6; seed++ {
		data := propBytes(seed, 48, true)
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for cname, cfg := range cfgs {
			cRes := propRun(t, served(cfg), prog, data[0], 0)
			iRes := propRun(t, interpreted(cfg), prog, data[0], 0)
			if cRes.Counters != iRes.Counters {
				t.Errorf("seed %d %s: counters diverge:\n  compiled    %+v\n  interpreted %+v",
					seed, cname, cRes.Counters, iRes.Counters)
			}
		}
	}
}

// TestCompiledOncePerRun asserts the compile pass is cached at the
// Program: a whole-device run across multiple SMs (each SM constructs
// its own execution state from the same kernel) lowers the program
// exactly once.
func TestCompiledOncePerRun(t *testing.T) {
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig() // 2 SMs
	if got := k.Program.CompileCount(); got != 0 {
		t.Fatalf("program pre-compiled: CompileCount = %d before the run", got)
	}
	if _, err := RunWorkers(cfg, k, 0); err != nil {
		t.Fatal(err)
	}
	if got := k.Program.CompileCount(); got != 1 {
		t.Errorf("CompileCount after a %d-SM run = %d, want 1", cfg.NumSMs, got)
	}
}
