package sm

import (
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/testutil"
)

// testConfig returns a deterministic single-block configuration with
// free instruction fetch, so timing assertions see only the mechanisms
// under test.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.Check = testutil.Checked()
	cfg.NumSMs = 1
	cfg.BlocksPerSM = 1
	cfg.L0MissPenalty = 0
	cfg.L1IMissPenalty = 0
	cfg.L1DataHitLatency = 1
	cfg.TexExtraLatency = 0
	return cfg
}

// run launches numWarps warps of prog on a fresh single SM.
func run(t *testing.T, cfg config.Config, prog *isa.Program, numWarps int) (stats.Counters, *SM) {
	t.Helper()
	k := &Kernel{Program: prog, NumWarps: numWarps, WarpsPerCTA: numWarps, Memory: mem.NewMemory()}
	s, err := NewSM(0, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < numWarps; i++ {
		s.Admit(i, i, 0, i)
	}
	c, err := s.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

// straightLine is a divergence-free all-math kernel.
func straightLine(n int) *isa.Program {
	b := isa.NewBuilder("straight")
	b.S2R(0, isa.SRLaneID)
	for i := 0; i < n; i++ {
		b.Iaddi(1, 0, int32(i))
	}
	return b.Exit().MustBuild()
}

func TestStraightLineIssuesEveryCycle(t *testing.T) {
	c, _ := run(t, testConfig(), straightLine(100), 1)
	if c.IssuedInstrs != 102 {
		t.Errorf("IssuedInstrs = %d, want 102", c.IssuedInstrs)
	}
	// One instruction per cycle plus trivial overhead.
	if c.Cycles < 102 || c.Cycles > 110 {
		t.Errorf("Cycles = %d, want ~102", c.Cycles)
	}
	if c.ExposedLoadStalls != 0 {
		t.Errorf("ExposedLoadStalls = %d on a mathonly kernel", c.ExposedLoadStalls)
	}
	if c.DivergentBranches != 0 {
		t.Errorf("DivergentBranches = %d", c.DivergentBranches)
	}
	// All 32 threads participate in every instruction.
	if c.ActiveThreads != c.IssuedInstrs*32 {
		t.Errorf("ActiveThreads = %d, want %d", c.ActiveThreads, c.IssuedInstrs*32)
	}
}

// loadUse builds: compute per-lane address, load, consume, store, exit.
func loadUse(base int32) *isa.Program {
	b := isa.NewBuilder("loaduse")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 7)         // lane * 128: one line per lane
	b.Iaddi(1, 1, base)    // R1 = base + lane*128
	b.Ldg(2, 1, 0, 0)      // LDG R2, [R1] &wr=sb0
	b.Iadd(3, 2, 0).Req(0) // load-to-use
	return b.Exit().MustBuild()
}

func TestLoadToUseStallTiming(t *testing.T) {
	cfg := testConfig()
	c, _ := run(t, cfg, loadUse(0x10000), 1)
	// The warp waits the full L1 miss latency exactly once.
	if c.Cycles < int64(cfg.L1MissLatency) || c.Cycles > int64(cfg.L1MissLatency)+50 {
		t.Errorf("Cycles = %d, want ≈ %d", c.Cycles, cfg.L1MissLatency)
	}
	if c.ExposedLoadStalls < int64(cfg.L1MissLatency)-50 {
		t.Errorf("ExposedLoadStalls = %d, want ≈ %d", c.ExposedLoadStalls, cfg.L1MissLatency)
	}
	// The kernel is convergent: no divergent stalls.
	if c.ExposedLoadStallsDivergent != 0 {
		t.Errorf("divergent stalls = %d on convergent kernel", c.ExposedLoadStallsDivergent)
	}
	if c.L1DMisses != 32 {
		t.Errorf("L1DMisses = %d, want 32 (one line per lane)", c.L1DMisses)
	}
}

func TestMultipleWarpsHideLatency(t *testing.T) {
	// With 8 warps, issue from other warps overlaps each warp's stall:
	// total exposed stalls shrink relative to serial execution.
	cfg := testConfig()
	prog := loadUse(0x10000)
	c1, _ := run(t, cfg, prog, 1)
	c8, _ := run(t, cfg, prog, 8)
	if c8.Cycles > c1.Cycles+100 {
		t.Errorf("8 warps (%d cyc) should not be much slower than 1 (%d cyc): stalls overlap",
			c8.Cycles, c1.Cycles)
	}
	if c8.IssuedInstrs != 8*c1.IssuedInstrs {
		t.Errorf("IssuedInstrs = %d, want %d", c8.IssuedInstrs, 8*c1.IssuedInstrs)
	}
}

func TestLoadValueArrives(t *testing.T) {
	// Functional check: store a known value, load it back, store the
	// doubled result; verify memory.
	b := isa.NewBuilder("roundtrip")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 2) // lane*4
	b.Movi(2, 0x1000)
	b.Iadd(1, 1, 2)        // in addr = 0x1000 + lane*4
	b.Ldg(3, 1, 0, 0)      // load
	b.Iadd(3, 3, 3).Req(0) // double it
	b.Iaddi(4, 1, 0x1000)  // out addr = 0x2000 + lane*4
	b.Stg(4, 0, 3)
	prog := b.Exit().MustBuild()

	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	for lane := 0; lane < 32; lane++ {
		k.Memory.Store(uint64(0x1000+lane*4), uint32(100+lane))
	}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	if _, err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		want := uint32(2 * (100 + lane))
		if got := s.Memory().Load(uint64(0x2000 + lane*4)); got != want {
			t.Errorf("lane %d: out = %d, want %d", lane, got, want)
		}
	}
}

// divergentIfElse builds the Fig. 9 pattern: half the warp loads from
// one buffer, half from another, with a load-to-use stall on each path.
func divergentIfElse(lat bool) *isa.Program {
	b := isa.NewBuilder("fig9like")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 7) // lane*128
	b.Isetpi(isa.CmpLT, 0, 0, 16)
	b.Bssy(0, "sync")
	b.BraP(0, false, "then")
	// else path (lanes 16..31)
	b.Iaddi(2, 1, 0x40000)
	b.Ldg(3, 2, 0, 1)
	b.Iadd(3, 3, 3).Req(1)
	b.Bra("sync")
	b.Label("then") // lanes 0..15
	b.Iaddi(2, 1, 0x10000)
	b.Ldg(3, 2, 0, 0)
	b.Iadd(3, 3, 3).Req(0)
	b.Bra("sync")
	b.Label("sync")
	b.Bsync(0)
	return b.Exit().MustBuild()
}

func TestBaselineSerializesDivergentStalls(t *testing.T) {
	cfg := testConfig()
	c, _ := run(t, cfg, divergentIfElse(true), 1)
	// Two serialized load-to-use stalls: ~2x miss latency.
	min := int64(2 * cfg.L1MissLatency)
	if c.Cycles < min || c.Cycles > min+100 {
		t.Errorf("baseline Cycles = %d, want ≈ %d (serialized subwarps)", c.Cycles, min)
	}
	if c.DivergentBranches != 1 {
		t.Errorf("DivergentBranches = %d, want 1", c.DivergentBranches)
	}
	if c.Reconvergences != 1 {
		t.Errorf("Reconvergences = %d, want 1", c.Reconvergences)
	}
	// Both stalls happen while the warp is diverged.
	if c.ExposedLoadStallsDivergent < min-100 {
		t.Errorf("divergent stalls = %d, want ≈ %d", c.ExposedLoadStallsDivergent, min)
	}
}

func TestSubwarpInterleavingOverlapsStalls(t *testing.T) {
	// The headline mechanism (Fig. 2): with SI, the two subwarps' loads
	// overlap in time and the warp finishes in ~1x the miss latency.
	cfg := testConfig().WithSI(false, config.TriggerAllStalled)
	c, _ := run(t, cfg, divergentIfElse(true), 1)
	max := int64(cfg.L1MissLatency) + 150
	if c.Cycles > max {
		t.Errorf("SI Cycles = %d, want < %d (overlapped subwarps)", c.Cycles, max)
	}
	if c.SubwarpStalls == 0 {
		t.Error("no subwarp-stall transitions recorded")
	}
	if c.SubwarpSelects == 0 {
		t.Error("no subwarp-select transitions recorded")
	}
	if c.SubwarpWakeups == 0 {
		t.Error("no subwarp-wakeup transitions recorded")
	}
}

func TestSISpeedupOnFig9(t *testing.T) {
	base, _ := run(t, testConfig(), divergentIfElse(true), 1)
	si, _ := run(t, testConfig().WithSI(false, config.TriggerAllStalled), divergentIfElse(true), 1)
	sp := stats.Speedup(base, si)
	if sp < 0.6 {
		t.Errorf("SI speedup on 2-way divergent loads = %.2f, want near 1.0 (2x)", sp)
	}
}

func TestSIWithYieldAtLeastAsGoodOnIndependentLoads(t *testing.T) {
	sos, _ := run(t, testConfig().WithSI(false, config.TriggerAnyStalled), divergentIfElse(true), 1)
	both, _ := run(t, testConfig().WithSI(true, config.TriggerAnyStalled), divergentIfElse(true), 1)
	// Yield issues the second subwarp's load before the first stalls;
	// with math between load and use, yield should not be slower by
	// more than the extra switch overheads.
	if both.Cycles > sos.Cycles+100 {
		t.Errorf("Both = %d cycles, SOS = %d", both.Cycles, sos.Cycles)
	}
	if both.SubwarpYields == 0 {
		t.Error("yield mode recorded no subwarp-yield transitions")
	}
}

// brxKernel dispatches lanes to `ways` distinct shader bodies through
// an indirect branch, each body loading from its own buffer.
func brxKernel(ways int) *isa.Program {
	b := isa.NewBuilder("brx")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 7)
	// target = shaderBase + (lane % ways) * shaderLen
	b.Movi(2, int32(ways-1))
	b.Iand(3, 0, 2) // lane % ways (ways must be a power of two)
	b.Bssy(0, "sync")
	// compute target PC: after this prologue the shaders are laid out
	// consecutively, each shaderLen instructions.
	const shaderLen = 5
	b.Imuli(4, 3, shaderLen)
	shaderBase := b.PC() + 2 // after the IADDI and BRX below
	b.Iaddi(4, 4, int32(shaderBase))
	b.Brx(4)
	for wy := 0; wy < ways; wy++ {
		b.Iaddi(5, 1, int32(0x10000*(wy+1))) // per-shader buffer
		b.Ldg(6, 5, 0, wy%8)
		b.Iadd(6, 6, 6).Req(wy % 8)
		b.Bra("sync")
		b.Nop() // pad to shaderLen
	}
	b.Label("sync")
	b.Bsync(0)
	return b.Exit().MustBuild()
}

func TestBRXMultiWayDivergence(t *testing.T) {
	for _, ways := range []int{2, 4, 8} {
		c, _ := run(t, testConfig(), brxKernel(ways), 1)
		if c.DivergentBranches != 1 {
			t.Errorf("ways=%d: DivergentBranches = %d, want 1", ways, c.DivergentBranches)
		}
		if c.MaxLiveSubwarps != int64(ways) {
			t.Errorf("ways=%d: MaxLiveSubwarps = %d", ways, c.MaxLiveSubwarps)
		}
		if c.Reconvergences != 1 {
			t.Errorf("ways=%d: Reconvergences = %d, want 1", ways, c.Reconvergences)
		}
	}
}

func TestSIScalesWithDivergenceWays(t *testing.T) {
	// More independent subwarps -> more overlap -> larger SI speedup.
	cfg := testConfig()
	si := testConfig().WithSI(false, config.TriggerAllStalled)
	var prev float64 = -1
	for _, ways := range []int{2, 4, 8} {
		base, _ := run(t, cfg, brxKernel(ways), 1)
		fast, _ := run(t, si, brxKernel(ways), 1)
		sp := stats.Speedup(base, fast)
		if sp <= prev {
			t.Errorf("ways=%d: speedup %.2f did not grow (prev %.2f)", ways, sp, prev)
		}
		prev = sp
	}
	if prev < 3 {
		t.Errorf("8-way speedup = %.2f, want near 7x", prev)
	}
}

func TestTSTCapacityLimitsOverlap(t *testing.T) {
	// With a 2-entry TST, 8-way divergence cannot fully overlap.
	cfgUnlimited := testConfig().WithSI(false, config.TriggerAllStalled)
	cfgSmall := cfgUnlimited
	cfgSmall.SI.MaxSubwarps = 2

	unlimited, _ := run(t, cfgUnlimited, brxKernel(8), 1)
	small, _ := run(t, cfgSmall, brxKernel(8), 1)
	if small.Cycles <= unlimited.Cycles {
		t.Errorf("2-entry TST (%d cyc) should be slower than unlimited (%d cyc)",
			small.Cycles, unlimited.Cycles)
	}
	if small.TSTOverflow == 0 {
		t.Error("2-entry TST should record overflow rejections")
	}
	base, _ := run(t, testConfig(), brxKernel(8), 1)
	if small.Cycles >= base.Cycles {
		t.Errorf("even a 2-entry TST (%d cyc) should beat baseline (%d cyc)",
			small.Cycles, base.Cycles)
	}
}

// loopKernel runs `iters` loop iterations of pure math.
func loopKernel(iters int32) *isa.Program {
	b := isa.NewBuilder("loop")
	b.Movi(1, 0)
	b.Label("top")
	b.Iaddi(2, 1, 100)
	b.Iaddi(1, 1, 1)
	b.Isetpi(isa.CmpLT, 0, 1, iters)
	b.BraP(0, false, "top")
	return b.Exit().MustBuild()
}

func TestLoopExecution(t *testing.T) {
	c, _ := run(t, testConfig(), loopKernel(50), 1)
	// 1 (MOVI) + 50*4 (loop body) + 1 (EXIT) instructions.
	if c.IssuedInstrs != 202 {
		t.Errorf("IssuedInstrs = %d, want 202", c.IssuedInstrs)
	}
	if c.DivergentBranches != 0 {
		t.Error("uniform loop must not diverge")
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each lane loops lane%4+1 times: divergence on loop exit.
	b := isa.NewBuilder("divloop")
	b.S2R(0, isa.SRLaneID)
	b.Movi(2, 3)
	b.Iand(2, 0, 2)  // lane % 4
	b.Iaddi(2, 2, 1) // trip count 1..4
	b.Movi(1, 0)
	b.Bssy(0, "done")
	b.Label("top")
	b.Iaddi(1, 1, 1)
	b.Isetp(isa.CmpLT, 0, 1, 2)
	b.BraP(0, false, "top")
	b.Label("done")
	b.Bsync(0)
	b.Shl(3, 0, 2)
	b.Movi(4, 0x5000)
	b.Iadd(3, 3, 4)
	b.Stg(3, 0, 1) // store iteration count
	prog := b.Exit().MustBuild()

	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	if _, err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		want := uint32(lane%4 + 1)
		if got := s.Memory().Load(uint64(0x5000 + lane*4)); got != want {
			t.Errorf("lane %d: trips = %d, want %d", lane, got, want)
		}
	}
}

func TestWarpWavesReuseSlots(t *testing.T) {
	// 8 slots, 20 warps: waves must complete all of them.
	cfg := testConfig()
	c, _ := run(t, cfg, straightLine(10), 20)
	if c.IssuedInstrs != 20*12 {
		t.Errorf("IssuedInstrs = %d, want %d", c.IssuedInstrs, 20*12)
	}
}

func TestRegisterPressureLimitsOccupancy(t *testing.T) {
	prog := straightLine(10)
	prog.RegsPerThread = 256 // 256*32 = 8192 regs per warp; 16384/8192 = 2 warps
	k := &Kernel{Program: prog, NumWarps: 4, WarpsPerCTA: 4, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentWarpsPerBlock(); got != 2 {
		t.Errorf("ResidentWarpsPerBlock = %d, want 2", got)
	}
}

func TestDeterminism(t *testing.T) {
	for _, si := range []bool{false, true} {
		cfg := testConfig()
		if si {
			cfg = cfg.WithSI(true, config.TriggerHalfStalled)
		}
		a, _ := run(t, cfg, brxKernel(4), 4)
		b, _ := run(t, cfg, brxKernel(4), 4)
		if a != b {
			t.Errorf("si=%v: two identical runs differ:\n%+v\n%+v", si, a, b)
		}
	}
}

func TestFunctionalEquivalenceBaselineVsSI(t *testing.T) {
	// SI must not change architectural results, only timing: run the
	// same store-producing kernel under baseline and all SI policies and
	// compare every memory word written.
	build := func() (*Kernel, *isa.Program) {
		b := isa.NewBuilder("func")
		b.S2R(0, isa.SRLaneID)
		b.Shl(1, 0, 7)
		b.Isetpi(isa.CmpLT, 0, 0, 11) // uneven split
		b.Bssy(0, "sync")
		b.BraP(0, false, "then")
		b.Iaddi(2, 1, 0x40000)
		b.Ldg(3, 2, 0, 1)
		b.Imuli(3, 3, 3).Req(1)
		b.Bra("sync")
		b.Label("then")
		b.Iaddi(2, 1, 0x10000)
		b.Ldg(3, 2, 0, 0)
		b.Imuli(3, 3, 5).Req(0)
		b.Bra("sync")
		b.Label("sync")
		b.Bsync(0)
		b.Shl(4, 0, 2)
		b.Movi(5, 0x8000)
		b.Iadd(4, 4, 5)
		b.Stg(4, 0, 3)
		prog := b.Exit().MustBuild()
		return &Kernel{Program: prog, NumWarps: 2, WarpsPerCTA: 2, Memory: mem.NewMemory()}, prog
	}

	results := make(map[string][]uint32)
	cfgs := map[string]config.Config{
		"baseline":    testConfig(),
		"SOS,N=1":     testConfig().WithSI(false, config.TriggerAllStalled),
		"Both,N>0":    testConfig().WithSI(true, config.TriggerAnyStalled),
		"Both,N>=0.5": testConfig().WithSI(true, config.TriggerHalfStalled),
	}
	for name, cfg := range cfgs {
		k, _ := build()
		s, err := NewSM(0, cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s.Admit(i, i, 0, i)
		}
		if _, err := s.Run(10_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var vals []uint32
		for lane := 0; lane < 64; lane++ {
			vals = append(vals, s.Memory().Load(uint64(0x8000+lane*4)))
		}
		results[name] = vals
	}
	want := results["baseline"]
	for name, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: word %d = %d, baseline = %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestKernelValidation(t *testing.T) {
	good := straightLine(1)
	memv := mem.NewMemory()
	cases := []struct {
		name string
		k    Kernel
	}{
		{"no program", Kernel{NumWarps: 1, WarpsPerCTA: 1, Memory: memv}},
		{"no warps", Kernel{Program: good, WarpsPerCTA: 1, Memory: memv}},
		{"no cta", Kernel{Program: good, NumWarps: 1, Memory: memv}},
		{"no memory", Kernel{Program: good, NumWarps: 1, WarpsPerCTA: 1}},
	}
	for _, c := range cases {
		if err := c.k.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// TRACE without BVH.
	b := isa.NewBuilder("trace")
	b.Trace(1, 0, 0)
	tr := b.Exit().MustBuild()
	k := Kernel{Program: tr, NumWarps: 1, WarpsPerCTA: 1, Memory: memv}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "BVH") {
		t.Errorf("TRACE without BVH: err = %v", err)
	}
}

func TestScoreboardCountMismatchRejected(t *testing.T) {
	b := isa.NewBuilder("sb15")
	b.Ldg(1, 0, 0, 15)
	prog := b.Exit().MustBuild()
	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	if _, err := NewSM(0, testConfig(), k); err == nil {
		t.Error("sb15 with 8 scoreboards/warp should be rejected")
	}
}

func TestCycleLimitErrors(t *testing.T) {
	b := isa.NewBuilder("forever")
	b.Label("top")
	b.Bra("top")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	if _, err := s.Run(10_000); err == nil {
		t.Error("infinite loop should exceed the cycle budget")
	}
}

func TestL1DCapacityReuseHits(t *testing.T) {
	// Loading the same line twice: second access hits.
	b := isa.NewBuilder("reuse")
	b.Movi(1, 0x9000)
	b.Ldg(2, 1, 0, 0)
	b.Iadd(3, 2, 2).Req(0)
	b.Ldg(4, 1, 0, 1)
	b.Iadd(5, 4, 4).Req(1)
	prog := b.Exit().MustBuild()
	c, _ := run(t, testConfig(), prog, 1)
	if c.L1DMisses != 1 {
		t.Errorf("L1DMisses = %d, want 1 (second load hits)", c.L1DMisses)
	}
	if c.L1DAccesses != 2 {
		t.Errorf("L1DAccesses = %d, want 2", c.L1DAccesses)
	}
}

func TestExposedStallAccountingSums(t *testing.T) {
	c, _ := run(t, testConfig(), divergentIfElse(true), 1)
	if c.IssueCycles+c.IdleCycles != c.Cycles {
		t.Errorf("IssueCycles(%d) + IdleCycles(%d) != Cycles(%d)",
			c.IssueCycles, c.IdleCycles, c.Cycles)
	}
	if c.ExposedLoadStallsDivergent > c.ExposedLoadStalls {
		t.Error("divergent stalls cannot exceed total stalls")
	}
	if c.ExposedLoadStalls > c.IdleCycles {
		t.Error("exposed stalls cannot exceed idle cycles")
	}
}

func TestYieldRequiresReadySubwarp(t *testing.T) {
	// A convergent kernel with loads under Both: no other subwarp, so
	// yield must never fire.
	cfg := testConfig().WithSI(true, config.TriggerAnyStalled)
	c, _ := run(t, cfg, loadUse(0x10000), 1)
	if c.SubwarpYields != 0 {
		t.Errorf("SubwarpYields = %d on convergent kernel", c.SubwarpYields)
	}
}

func TestSwitchLatencyCharged(t *testing.T) {
	cfg := testConfig().WithSI(false, config.TriggerAllStalled)
	c, _ := run(t, cfg, divergentIfElse(true), 1)
	if c.SelectBusy != c.SubwarpSelects*int64(cfg.SI.SwitchLatency) {
		t.Errorf("SelectBusy = %d, want selects(%d) * latency(%d)",
			c.SelectBusy, c.SubwarpSelects, cfg.SI.SwitchLatency)
	}
}

func TestOrderPolicies(t *testing.T) {
	// All activation orders must produce functionally identical runs.
	for _, ord := range []config.SubwarpOrder{
		config.OrderTakenFirst, config.OrderFallthroughFirst,
		config.OrderLargestFirst, config.OrderRandom,
	} {
		cfg := testConfig()
		cfg.Order = ord
		c, _ := run(t, cfg, divergentIfElse(true), 1)
		if c.DivergentBranches != 1 || c.Reconvergences != 1 {
			t.Errorf("order %v: diverge/reconverge = %d/%d",
				ord, c.DivergentBranches, c.Reconvergences)
		}
	}
}
