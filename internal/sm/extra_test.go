package sm

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
)

// TestTexPathSlowerThanLSU: the texture writeback port adds its extra
// latency relative to a plain global load.
func TestTexPathSlowerThanLSU(t *testing.T) {
	cfg := testConfig()
	cfg.TexExtraLatency = 80

	build := func(tex bool) *isa.Program {
		b := isa.NewBuilder("texlat")
		b.S2R(0, isa.SRLaneID)
		b.Shl(1, 0, 7)
		b.Iaddi(1, 1, 0x10000)
		if tex {
			b.Tld(2, 1, 0, 0)
		} else {
			b.Ldg(2, 1, 0, 0)
		}
		b.Iadd(3, 2, 2).Req(0)
		return b.Exit().MustBuild()
	}
	ldg, _ := run(t, cfg, build(false), 1)
	tld, _ := run(t, cfg, build(true), 1)
	diff := tld.Cycles - ldg.Cycles
	if diff < 70 || diff > 90 {
		t.Errorf("TEX path extra = %d cycles, want ~80", diff)
	}
}

// TestCoalescingSameLine: 32 lanes loading the same line issue one L1D
// line request; scattered lanes issue 32.
func TestCoalescingSameLine(t *testing.T) {
	build := func(scatter bool) *isa.Program {
		b := isa.NewBuilder("coalesce")
		b.S2R(0, isa.SRLaneID)
		if scatter {
			b.Shl(1, 0, 7) // lane*128: one line each
		} else {
			b.Shl(1, 0, 2) // lane*4: all in one line
		}
		b.Iaddi(1, 1, 0x20000)
		b.Ldg(2, 1, 0, 0)
		b.Iadd(3, 2, 2).Req(0)
		return b.Exit().MustBuild()
	}
	uni, _ := run(t, testConfig(), build(false), 1)
	if uni.LinesFetched != 1 {
		t.Errorf("coalesced LinesFetched = %d, want 1", uni.LinesFetched)
	}
	sc, _ := run(t, testConfig(), build(true), 1)
	if sc.LinesFetched != 32 {
		t.Errorf("scattered LinesFetched = %d, want 32", sc.LinesFetched)
	}
}

// TestStoreToLoadForwarding: a store is visible to a later load through
// the functional memory.
func TestStoreToLoadForwarding(t *testing.T) {
	b := isa.NewBuilder("stld")
	b.Movi(1, 0x3000)
	b.Movi(2, 77)
	b.Stg(1, 0, 2)
	b.Ldg(3, 1, 0, 0)
	b.Iadd(4, 3, 3).Req(0)
	b.Shl(5, 0, 0) // keep R5 = R0 (zero)
	b.Movi(5, 0x4000)
	b.Stg(5, 0, 4)
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
	if got := s.Memory().Load(0x4000); got != 154 {
		t.Errorf("forwarded value = %d, want 154", got)
	}
}

// TestNestedBarriers: an inner divergent region reconverges before the
// outer one.
func TestNestedBarriers(t *testing.T) {
	b := isa.NewBuilder("nested")
	b.S2R(0, isa.SRLaneID)
	b.Isetpi(isa.CmpLT, 0, 0, 16) // outer split at 16
	b.Isetpi(isa.CmpLT, 1, 0, 8)  // inner split at 8
	b.Bssy(0, "outer")
	b.BraP(0, false, "low16")
	b.Iaddi(2, 2, 1) // lanes 16..31
	b.Bra("outer")
	b.Label("low16")
	b.Bssy(1, "inner")
	b.BraP(1, false, "low8")
	b.Iaddi(2, 2, 2) // lanes 8..15
	b.Bra("inner")
	b.Label("low8")
	b.Iaddi(2, 2, 3) // lanes 0..7
	b.Bra("inner")
	b.Label("inner")
	b.Bsync(1)
	b.Iaddi(2, 2, 10) // all of lanes 0..15
	b.Bra("outer")
	b.Label("outer")
	b.Bsync(0)
	b.Shl(3, 0, 2)
	b.Movi(4, 0x6000)
	b.Iadd(3, 3, 4)
	b.Stg(3, 0, 2)
	prog := b.Exit().MustBuild()

	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	c, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reconvergences != 2 {
		t.Errorf("Reconvergences = %d, want 2 (inner + outer)", c.Reconvergences)
	}
	for lane := 0; lane < 32; lane++ {
		want := uint32(1) // outer-else
		switch {
		case lane < 8:
			want = 3 + 10
		case lane < 16:
			want = 2 + 10
		}
		if got := s.Memory().Load(uint64(0x6000 + lane*4)); got != want {
			t.Errorf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

// TestSIMTEfficiencyUnderDivergence: a 50/50 divergent region halves
// thread participation on divergent instructions.
func TestSIMTEfficiencyUnderDivergence(t *testing.T) {
	c, _ := run(t, testConfig(), divergentIfElse(true), 1)
	eff := float64(c.ActiveThreads) / float64(c.IssuedInstrs) / 32
	if eff < 0.5 || eff > 0.95 {
		t.Errorf("SIMT efficiency = %.2f, want between 0.5 and 0.95", eff)
	}
}

// TestYieldThresholdDelaysYield: with a threshold of 2, a single
// long-latency op must not trigger a yield.
func TestYieldThresholdDelaysYield(t *testing.T) {
	cfg := testConfig().WithSI(true, config.TriggerAllStalled)
	cfg.SI.YieldThreshold = 2
	c, _ := run(t, cfg, divergentIfElse(true), 1)
	if c.SubwarpYields != 0 {
		t.Errorf("SubwarpYields = %d with threshold 2 and single loads", c.SubwarpYields)
	}
}

// TestOrderRandomDeterministic: OrderRandom draws from per-block seeded
// generators, so repeated runs agree.
func TestOrderRandomDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Order = config.OrderRandom
	a, _ := run(t, cfg, brxKernel(4), 2)
	b, _ := run(t, cfg, brxKernel(4), 2)
	if a != b {
		t.Error("OrderRandom runs differ across identical seeds")
	}
}

// TestLargestFirstActivatesBigSubwarp: with OrderLargestFirst, the
// 31-lane side of a 1/31 split runs first.
func TestLargestFirstActivatesBigSubwarp(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("split131")
		b.S2R(0, isa.SRLaneID)
		b.Isetpi(isa.CmpEQ, 0, 0, 0)
		b.Bssy(0, "sync")
		b.BraP(0, false, "one") // lane 0 takes the branch
		b.Movi(1, 31)           // the 31-lane fall-through side
		b.Bra("sync")
		b.Label("one")
		b.Movi(1, 1)
		b.Bra("sync")
		b.Label("sync")
		b.Bsync(0)
		return b.Exit().MustBuild()
	}
	cfg := testConfig()
	cfg.Order = config.OrderLargestFirst
	k := &Kernel{Program: build(), NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	s, err := NewSM(0, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	blk := s.blocks[0]
	w := blk.warps[0]
	for now := int64(0); ; now++ {
		blk.step(now)
		if w.tab.LiveSubwarps() > 1 {
			break
		}
		if now > 1000 {
			t.Fatal("never diverged")
		}
	}
	if w.Active().Count() != 31 {
		t.Errorf("active subwarp = %d lanes, want 31 (largest first)", w.Active().Count())
	}
}

// TestFewerScoreboardsStillCorrect: a program using only sb0/sb1 runs
// under a 2-scoreboard configuration.
func TestFewerScoreboardsStillCorrect(t *testing.T) {
	cfg := testConfig()
	cfg.ScoreboardsPerWarp = 2
	c, _ := run(t, cfg, divergentIfElse(true), 1)
	if c.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestConvergentBranchDoesNotSplinter: a branch all lanes take is free
// of divergence bookkeeping.
func TestConvergentBranchDoesNotSplinter(t *testing.T) {
	b := isa.NewBuilder("conv")
	b.S2R(0, isa.SRLaneID)
	b.Isetpi(isa.CmpGE, 0, 0, 0) // true for all lanes
	b.BraP(0, false, "all")
	b.Movi(1, 99) // dead
	b.Label("all")
	prog := b.Exit().MustBuild()
	c, _ := run(t, testConfig(), prog, 1)
	if c.DivergentBranches != 0 {
		t.Errorf("DivergentBranches = %d", c.DivergentBranches)
	}
	if c.MaxLiveSubwarps > 1 {
		t.Errorf("MaxLiveSubwarps = %d", c.MaxLiveSubwarps)
	}
}

// TestMufuAndFloatOps: float pipeline executes and produces finite
// values.
func TestMufuAndFloatOps(t *testing.T) {
	b := isa.NewBuilder("float")
	b.Movi(1, 0x40800000) // 4.0f
	b.Fadd(2, 1, 1)       // 8.0
	b.Fmul(3, 2, 1)       // 32.0
	b.Ffma(4, 3, 1, 2)    // 136.0
	b.Mufu(5, 4)          // 1/sqrt(137)
	b.Movi(6, 0x7000)
	b.Stg(6, 0, 4)
	prog := b.Exit().MustBuild()
	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	if _, err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Memory().Load(0x7000); got != 0x43080000 { // 136.0f
		t.Errorf("FFMA chain = %#x, want 0x43080000 (136.0f)", got)
	}
}

// TestFetchPortSerializesFills: a block with many concurrent L0 misses
// takes longer than the sum of independent fills would suggest.
func TestFetchPortSerializesFills(t *testing.T) {
	cfg := testConfig()
	cfg.L0MissPenalty = 50
	cfg.L0InstrBytes = 512 // 4 lines: everything misses
	// A straight-line kernel long enough to touch many lines.
	c, _ := run(t, cfg, straightLine(200), 2)
	if c.L0IMisses == 0 {
		t.Fatal("expected L0 misses")
	}
	// With a 50-cycle serialized fill port and ~13 lines per warp, the
	// runtime must far exceed the no-contention instruction count.
	if c.Cycles < 400 {
		t.Errorf("Cycles = %d; fill port serialization should dominate", c.Cycles)
	}
}
