package workload

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/stats"
)

func TestMicrobenchValidation(t *testing.T) {
	bad := []MicrobenchParams{
		{SubwarpSize: 3, Iterations: 1, AccessesPerSubwarp: 1, CaseInstrs: 64, NumWarps: 1, LineBytes: 128},
		{SubwarpSize: 64, Iterations: 1, AccessesPerSubwarp: 1, CaseInstrs: 64, NumWarps: 1, LineBytes: 128},
		{SubwarpSize: 8, Iterations: 0, AccessesPerSubwarp: 1, CaseInstrs: 64, NumWarps: 1, LineBytes: 128},
		{SubwarpSize: 8, Iterations: 1, AccessesPerSubwarp: 0, CaseInstrs: 64, NumWarps: 1, LineBytes: 128},
		{SubwarpSize: 8, Iterations: 1, AccessesPerSubwarp: 10, CaseInstrs: 8, NumWarps: 1, LineBytes: 128},
		{SubwarpSize: 8, Iterations: 1, AccessesPerSubwarp: 1, CaseInstrs: 64, NumWarps: 0, LineBytes: 128},
	}
	for i, p := range bad {
		if _, err := Microbench(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMicrobenchDivergenceFactors(t *testing.T) {
	for _, ss := range []int{32, 16, 8, 4, 2, 1} {
		p := DefaultMicrobench(ss)
		k, err := Microbench(p)
		if err != nil {
			t.Fatalf("ss=%d: %v", ss, err)
		}
		if err := k.Program.Validate(); err != nil {
			t.Fatalf("ss=%d: %v", ss, err)
		}
		want := 32 / ss
		if p.DivergenceFactor() != want {
			t.Errorf("ss=%d: DivergenceFactor = %d", ss, p.DivergenceFactor())
		}
	}
}

// microCfg keeps microbenchmark runs small and deterministic.
func microCfg() config.Config {
	cfg := config.Default()
	return cfg
}

func TestMicrobenchRunsAndDiverges(t *testing.T) {
	p := DefaultMicrobench(8) // 4 subwarps
	p.Iterations = 2
	k, err := Microbench(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Run(microCfg(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MaxLiveSubwarps != 4 {
		t.Errorf("MaxLiveSubwarps = %d, want 4", res.Counters.MaxLiveSubwarps)
	}
	if res.Counters.DivergentBranches == 0 {
		t.Error("microbenchmark must diverge")
	}
	// Every access is a compulsory miss by construction.
	if res.Counters.L1DMisses != res.Counters.L1DAccesses {
		t.Errorf("L1D hits on compulsory-miss benchmark: %d/%d",
			res.Counters.L1DMisses, res.Counters.L1DAccesses)
	}
	// Stalls dominate the baseline run and occur in divergent code.
	d := res.Derived()
	if d.ExposedStallFrac < 0.5 {
		t.Errorf("ExposedStallFrac = %.2f, want stall-dominated", d.ExposedStallFrac)
	}
	if res.Counters.ExposedLoadStallsDivergent*2 < res.Counters.ExposedLoadStalls {
		t.Error("microbenchmark stalls should be mostly divergent")
	}
}

func TestMicrobenchSISpeedupNearLinear(t *testing.T) {
	// The Table III shape at small divergence: near-2x at 2 subwarps.
	p := DefaultMicrobench(16)
	p.Iterations = 3
	base := microCfg()
	si := microCfg().WithSI(true, config.TriggerHalfStalled)
	mk := func() *gpu.Result { return nil }
	_ = mk
	kb, err := Microbench(p)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := gpu.Run(base, kb)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := Microbench(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := gpu.Run(si, ks)
	if err != nil {
		t.Fatal(err)
	}
	sp := 1 + stats.Speedup(rb.Counters, rs.Counters)
	if sp < 1.6 || sp > 2.2 {
		t.Errorf("2-way divergence speedup = %.2fx, want ~2x", sp)
	}
}

func TestAppProfilesComplete(t *testing.T) {
	apps := Apps()
	if len(apps) != 10 {
		t.Fatalf("Apps() = %d profiles, want 10 (Table II)", len(apps))
	}
	wantOrder := []string{"AV1", "AV2", "BFV1", "BFV2", "Coll1", "Coll2", "Ctrl", "DDGI", "MC", "MW"}
	for i, name := range AppNames() {
		if name != wantOrder[i] {
			t.Errorf("app %d = %s, want %s (paper order)", i, name, wantOrder[i])
		}
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if a.Effect == "" || a.App == "" {
			t.Errorf("%s: missing Table II metadata", a.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("BFV1")
	if err != nil || p.Name != "BFV1" {
		t.Errorf("ProfileByName(BFV1) = %+v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestMegakernelBuilds(t *testing.T) {
	for _, a := range Apps() {
		k, err := Megakernel(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if k.BVH == nil || k.RayGen == nil {
			t.Fatalf("%s: missing RT resources", a.Name)
		}
		if k.Program.RegsPerThread != a.RegsPerThread {
			t.Errorf("%s: regs = %d, want %d", a.Name, k.Program.RegsPerThread, a.RegsPerThread)
		}
	}
}

func TestMegakernelDeterministicBuild(t *testing.T) {
	p, _ := ProfileByName("AV1")
	k1, err := Megakernel(p)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Megakernel(p)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Program.Len() != k2.Program.Len() {
		t.Fatal("program lengths differ")
	}
	for pc := range k1.Program.Code {
		if k1.Program.Code[pc] != k2.Program.Code[pc] {
			t.Fatalf("instruction %d differs between builds", pc)
		}
	}
}

func TestMegakernelRunsAndDiverges(t *testing.T) {
	p, _ := ProfileByName("Ctrl")
	p.NumWarps = 16 // keep the test fast
	p.Iterations = 2
	k, err := Megakernel(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Run(config.Default(), k)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.DivergentBranches == 0 {
		t.Error("megakernel should diverge at shader dispatch")
	}
	if c.MaxLiveSubwarps < 2 {
		t.Errorf("MaxLiveSubwarps = %d", c.MaxLiveSubwarps)
	}
	if c.RTTraces == 0 {
		t.Error("megakernel should trace rays")
	}
	if c.ExposedLoadStalls == 0 || c.ExposedLoadStallsDivergent == 0 {
		t.Error("megakernel should expose both total and divergent stalls")
	}
	if c.Reconvergences == 0 {
		t.Error("shaders should reconverge at the barrier")
	}
}

func TestMegakernelFunctionalEquivalence(t *testing.T) {
	// Baseline and SI runs must produce identical radiance outputs.
	p, _ := ProfileByName("MC")
	p.NumWarps = 8
	p.Iterations = 2

	k, err := Megakernel(p)
	if err != nil {
		t.Fatal(err)
	}
	outputs := func(cfg config.Config) []uint32 {
		res, err := gpu.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint32
		for tid := 0; tid < p.NumWarps*32; tid++ {
			out = append(out, res.Memory.Load(uint64(0x0080_0000+tid*4)))
		}
		return out
	}
	base := outputs(config.Default())
	si := outputs(config.Default().WithSI(true, config.TriggerHalfStalled))
	for i := range base {
		if base[i] != si[i] {
			t.Fatalf("thread %d: baseline %#x != SI %#x", i, base[i], si[i])
		}
	}
	// The kernel must actually compute something.
	nonzero := 0
	for _, v := range base {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(base)/2 {
		t.Errorf("only %d/%d threads produced output", nonzero, len(base))
	}
}

func TestMegakernelSIHelps(t *testing.T) {
	// A divergent-stall-heavy profile must speed up under SI.
	p, _ := ProfileByName("BFV1")
	p.NumWarps = 32
	mkRun := func(cfg config.Config) stats.Counters {
		k, err := Megakernel(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gpu.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	base := mkRun(config.Default())
	si := mkRun(config.Default().WithSI(true, config.TriggerHalfStalled))
	sp := stats.Speedup(base, si)
	if sp <= 0 {
		t.Errorf("BFV1 SI speedup = %.3f, want positive", sp)
	}
	if si.SubwarpStalls == 0 || si.SubwarpSelects == 0 {
		t.Error("SI transitions should fire on a raytracing megakernel")
	}
}

func TestMegakernelValidation(t *testing.T) {
	p, _ := ProfileByName("AV1")
	p.Shaders = 0
	if _, err := Megakernel(p); err == nil {
		t.Error("zero shaders should fail")
	}
	p, _ = ProfileByName("AV1")
	p.ShaderLoads, p.ConvLoads = 0, 0
	if _, err := Megakernel(p); err == nil {
		t.Error("no memory ops should fail")
	}
	p, _ = ProfileByName("AV1")
	p.RegsPerThread = 8
	if _, err := Megakernel(p); err == nil {
		t.Error("tiny register count should fail")
	}
}

func TestMicrobenchProgramFootprint(t *testing.T) {
	// 32-way divergence must push the static footprint past the 16KB
	// L0I (the Table III taper); 16-way must fit.
	k32, err := Microbench(DefaultMicrobench(1))
	if err != nil {
		t.Fatal(err)
	}
	k16, err := Microbench(DefaultMicrobench(2))
	if err != nil {
		t.Fatal(err)
	}
	if fp := k32.Program.StaticFootprintBytes(8); fp <= 16<<10 {
		t.Errorf("32-way footprint = %d B, want > 16KB", fp)
	}
	if fp := k16.Program.StaticFootprintBytes(8); fp > 16<<10 {
		t.Errorf("16-way footprint = %d B, want <= 16KB", fp)
	}
}

func TestFig9DisassemblyShape(t *testing.T) {
	// The generated microbenchmark must carry scoreboard annotations on
	// loads and consumers, like Fig. 9.
	k, err := Microbench(DefaultMicrobench(16))
	if err != nil {
		t.Fatal(err)
	}
	var loads, reqs int
	for _, in := range k.Program.Code {
		if in.Op == isa.LDG {
			loads++
			if in.WrScbd == isa.NoScoreboard {
				t.Fatal("load without &wr")
			}
		}
		if in.ReqScbd != isa.NoScoreboard {
			reqs++
		}
	}
	if loads == 0 || reqs < loads {
		t.Errorf("loads = %d, reqs = %d", loads, reqs)
	}
}

// TestGeneratedProgramsReassemble: the disassembly of every generated
// kernel reassembles into an identical program — exercising the
// assembler over thousands of real instructions.
func TestGeneratedProgramsReassemble(t *testing.T) {
	var progs []*isa.Program
	for _, ss := range []int{16, 2} {
		k, err := Microbench(DefaultMicrobench(ss))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, k.Program)
	}
	for _, name := range []string{"BFV1", "Coll1", "MC"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Megakernel(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, k.Program)
	}
	for _, p := range progs {
		again, err := isa.Assemble(p.Name, p.Disassemble())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if again.Len() != p.Len() {
			t.Fatalf("%s: %d != %d instrs", p.Name, again.Len(), p.Len())
		}
		for pc := range p.Code {
			if again.Code[pc] != p.Code[pc] {
				t.Fatalf("%s pc %d: %v != %v", p.Name, pc, again.Code[pc], p.Code[pc])
			}
		}
	}
}

// TestDWSNeverBreaksFunctionality: the DWS model produces the same
// architectural outputs as baseline and SI.
func TestDWSNeverBreaksFunctionality(t *testing.T) {
	p, _ := ProfileByName("Ctrl")
	p.NumWarps = 8
	p.Iterations = 2
	k, err := Megakernel(p)
	if err != nil {
		t.Fatal(err)
	}
	outputs := func(cfg config.Config) []uint32 {
		res, err := gpu.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint32
		for tid := 0; tid < p.NumWarps*32; tid++ {
			out = append(out, res.Memory.Load(uint64(0x0080_0000+tid*4)))
		}
		return out
	}
	base := outputs(config.Default())
	dws := outputs(config.Default().WithDWS())
	for i := range base {
		if base[i] != dws[i] {
			t.Fatalf("thread %d: baseline %#x != DWS %#x", i, base[i], dws[i])
		}
	}
}
