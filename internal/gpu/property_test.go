package gpu

import (
	"math/rand"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// Property/metamorphic suite: invariants that must hold for every
// kernel, checked over a deterministic generated corpus (seeded PRNG
// driving the FuzzRun byte generator) so they run in ordinary `go
// test` without the fuzz engine.

// propBytes derives a deterministic byte stream for fuzzProgram.
// allowDivergence=false restricts control bytes to the straight-line
// menu entries (ALU, loads, textures, stores: c%12 in 0..5), so the
// generated kernel never splinters a warp.
func propBytes(seed int64, n int, allowDivergence bool) []byte {
	r := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		if allowDivergence {
			data[i] = byte(r.Intn(256))
		} else {
			// Uniform over {v < 246 : v%12 <= 5}; valid for control and
			// operand positions alike.
			data[i] = byte(r.Intn(21)*12 + r.Intn(6))
		}
	}
	return data
}

// propKernel instantiates the kernel for one generated program.
func propKernel(t *testing.T, prog *isa.Program, shape byte) *sm.Kernel {
	t.Helper()
	return &sm.Kernel{
		Program:     prog,
		NumWarps:    int(shape)%12 + 1,
		WarpsPerCTA: int(shape>>4)%4 + 1,
		Memory:      fuzzMemory(),
	}
}

func propRun(t *testing.T, cfg config.Config, prog *isa.Program, shape byte, workers int) Result {
	t.Helper()
	res, err := RunWorkers(cfg, propKernel(t, prog, shape), workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// siConfigs are the policy points the properties quantify over.
func siConfigs() map[string]config.Config {
	return map[string]config.Config{
		"SOS half":  defaultConfig().WithSI(false, config.TriggerHalfStalled),
		"SOS any":   defaultConfig().WithSI(false, config.TriggerAnyStalled),
		"Both half": defaultConfig().WithSI(true, config.TriggerHalfStalled),
		"Both all":  defaultConfig().WithSI(true, config.TriggerAllStalled),
	}
}

// TestPropertySITransparencyWithoutDivergence: on kernels that never
// diverge, Subwarp Interleaving must be a strict no-op — every counter
// of every SI policy run is cycle-exact against the baseline, because
// a warp with a single subwarp gives the subwarp scheduler nothing to
// interleave.
func TestPropertySITransparencyWithoutDivergence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		data := propBytes(seed, 48, false)
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatal(err)
		}
		base := propRun(t, defaultConfig(), prog, data[0], 1)
		if base.Counters.DivergentBranches != 0 {
			t.Fatalf("seed %d: straight-line generator produced %d divergent branches",
				seed, base.Counters.DivergentBranches)
		}
		for name, cfg := range siConfigs() {
			got := propRun(t, cfg, prog, data[0], 1)
			if got.Counters != base.Counters {
				t.Errorf("seed %d: %s is not transparent without divergence:\n  baseline %+v\n  SI       %+v",
					seed, name, base.Counters, got.Counters)
			}
		}
	}
}

// TestPropertyGeneratedProgramsTerminate: every generated program must
// run to completion without tripping the deadlock detector or the cycle
// budget. This guards fuzzProgram's structural guarantee that all
// divergent constructs arm a convergence barrier before branching —
// without it, warp fragments from an unprotected splinter re-arm reused
// barrier indices at skewed program points and cross-block at BSYNC.
func TestPropertyGeneratedProgramsTerminate(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		data := propBytes(seed, 48, true)
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, cfg := range map[string]config.Config{
			"baseline": defaultConfig(),
			"SI":       defaultConfig().WithSI(true, config.TriggerHalfStalled),
		} {
			if _, err := RunWorkers(cfg, propKernel(t, prog, data[0]), 1); err != nil {
				t.Errorf("seed %d, %s: %v", seed, name, err)
			}
		}
	}
}

// TestPropertyIdleBucketsConserveIdleCycles: the five idle-attribution
// buckets partition idle time exactly, for every kernel and policy.
func TestPropertyIdleBucketsConserveIdleCycles(t *testing.T) {
	configs := siConfigs()
	configs["baseline"] = defaultConfig()
	configs["DWS"] = defaultConfig().WithDWS()
	for seed := int64(0); seed < 6; seed++ {
		data := propBytes(seed, 48, true)
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range configs {
			c := propRun(t, cfg, prog, data[0], 1).Counters
			sum := c.IdleLoadCycles + c.IdleFetchCycles + c.IdleSwitchCycles +
				c.IdleBarrierCycles + c.IdleNoWarpCycles
			if sum != c.IdleCycles {
				t.Errorf("seed %d, %s: idle buckets sum to %d, IdleCycles = %d (load %d fetch %d switch %d barrier %d nowarp %d)",
					seed, name, sum, c.IdleCycles, c.IdleLoadCycles, c.IdleFetchCycles,
					c.IdleSwitchCycles, c.IdleBarrierCycles, c.IdleNoWarpCycles)
			}
			if c.IssueCycles+c.IdleCycles == 0 {
				t.Errorf("seed %d, %s: empty run", seed, name)
			}
		}
	}
}

// TestPropertyWorkInvariantAcrossScheduling: scheduling policy (SI
// mode, divergent-path order) and simulation parallelism change *when*
// instructions issue, never *what* executes: the lane-weighted work
// (ActiveThreads) and the final memory image are identical everywhere.
func TestPropertyWorkInvariantAcrossScheduling(t *testing.T) {
	type outcome struct {
		name    string
		threads int64
		fp      uint64
	}
	for seed := int64(10); seed < 16; seed++ {
		data := propBytes(seed, 48, true)
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatal(err)
		}
		var outcomes []outcome
		record := func(name string, cfg config.Config, workers int) {
			res := propRun(t, cfg, prog, data[0], workers)
			outcomes = append(outcomes, outcome{name, res.Counters.ActiveThreads, res.Memory.Fingerprint()})
		}
		record("baseline w1", defaultConfig(), 1)
		record("baseline w4", defaultConfig(), 4)
		for name, cfg := range siConfigs() {
			record(name, cfg, 1)
		}
		for _, ord := range []config.SubwarpOrder{
			config.OrderFallthroughFirst, config.OrderLargestFirst, config.OrderRandom,
		} {
			cfg := defaultConfig().WithSI(true, config.TriggerHalfStalled)
			cfg.Order = ord
			record("order variant", cfg, 1)
		}
		for _, o := range outcomes[1:] {
			if o.threads != outcomes[0].threads {
				t.Errorf("seed %d: %s retired %d thread-instructions, %s retired %d",
					seed, o.name, o.threads, outcomes[0].name, outcomes[0].threads)
			}
			if o.fp != outcomes[0].fp {
				t.Errorf("seed %d: %s final memory %#x differs from %s %#x",
					seed, o.name, o.fp, outcomes[0].name, outcomes[0].fp)
			}
		}
	}
}

// TestPropertySpeedupMonotoneInSwitchLatency: every extra cycle of
// subwarp-switch overhead can only erode SI's benefit. On the
// divergence microbenchmark, SI cycle counts are non-decreasing and
// speedup over the (switch-latency-independent) baseline is
// non-increasing as the switch latency grows.
func TestPropertySpeedupMonotoneInSwitchLatency(t *testing.T) {
	run := func(cfg config.Config) int64 {
		k, err := workload.Microbench(workload.DefaultMicrobench(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorkers(cfg, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.Cycles
	}
	base := run(defaultConfig())
	prev := int64(0)
	prevLat := -1
	for _, lat := range []int{0, 1, 2, 4, 8, 16, 32} {
		cfg := defaultConfig().WithSI(true, config.TriggerHalfStalled)
		cfg.SI.SwitchLatency = lat
		cycles := run(cfg)
		if prevLat >= 0 && cycles < prev {
			t.Errorf("switch latency %d -> %d cycles, but latency %d -> %d: SI got faster with more overhead",
				lat, cycles, prevLat, prev)
		}
		prev, prevLat = cycles, lat
	}
	if prev <= 0 || base <= 0 {
		t.Fatal("degenerate run")
	}
}
