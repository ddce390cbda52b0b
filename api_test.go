package subwarpsim

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumSMs != 2 || cfg.BlocksPerSM != 4 || cfg.WarpSlotsPerBlock != 8 {
		t.Errorf("Table I geometry wrong: %+v", cfg)
	}
	if cfg.L1MissLatency != 600 || cfg.SI.SwitchLatency != 6 {
		t.Error("Table I latencies wrong")
	}
	if cfg.SI.Enabled {
		t.Error("default must be the baseline")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplicationsSurface(t *testing.T) {
	apps := Applications()
	if len(apps) != 10 {
		t.Fatalf("Applications = %d, want 10", len(apps))
	}
	names := ApplicationNames()
	for i, a := range apps {
		if names[i] != a.Name {
			t.Errorf("name order mismatch at %d", i)
		}
		got, err := Application(a.Name)
		if err != nil || got.Name != a.Name {
			t.Errorf("Application(%s): %v", a.Name, err)
		}
	}
	if _, err := Application("bogus"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestBuildAndRunMegakernel(t *testing.T) {
	if testing.Short() {
		t.Skip("full app run")
	}
	app, err := Application("MC")
	if err != nil {
		t.Fatal(err)
	}
	app.NumWarps = 16
	app.Iterations = 2
	k, err := BuildMegakernel(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Cycles == 0 || res.Counters.RTTraces == 0 {
		t.Errorf("suspicious run: %+v", res.Counters)
	}
}

func TestMicrobenchmarkSurface(t *testing.T) {
	p := DefaultMicrobenchmark(8)
	if p.DivergenceFactor() != 4 {
		t.Errorf("DivergenceFactor = %d", p.DivergenceFactor())
	}
	p.Iterations = 2
	k, err := BuildMicrobenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MaxLiveSubwarps != 4 {
		t.Errorf("MaxLiveSubwarps = %d, want 4", res.Counters.MaxLiveSubwarps)
	}
}

func TestExperimentsSurface(t *testing.T) {
	all := Experiments()
	if len(all) < 8 {
		t.Fatalf("Experiments = %d, want >= 8", len(all))
	}
	for _, id := range []string{"fig3", "table3", "fig12a", "fig12b", "fig13", "fig14", "fig15", "icache"} {
		if _, ok := ExperimentByID(id); !ok {
			t.Errorf("missing %s", id)
		}
	}
}

func TestAssembleSurface(t *testing.T) {
	prog, err := Assemble("t", "S2R R0, SR0\nIADD R1, R0, 1\nEXIT")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 3 {
		t.Errorf("Len = %d", prog.Len())
	}
	if !strings.Contains(prog.Disassemble(), "IADD") {
		t.Error("disassembly missing IADD")
	}
	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: NewMemory()}
	if _, err := Run(DefaultConfig(), k); err != nil {
		t.Fatal(err)
	}
}

func TestRaytracingSurface(t *testing.T) {
	sc, err := GenerateScene(SceneParams{
		Seed: 7, Triangles: 200, Materials: 4, Clusters: 6, Extent: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	cam := NewCamera(sc.BVH, 16, 16)
	hits := 0
	for px := uint32(0); px < 256; px++ {
		if sc.BVH.Traverse(cam.PrimaryRay(px), 1e-4, InfinityT).Ok {
			hits++
		}
	}
	if hits == 0 {
		t.Error("camera should hit the scene")
	}
	// Direct BVH use.
	bvh := BuildBVH([]Triangle{{V0: V(-1, -1, 5), V1: V(1, -1, 5), V2: V(0, 1, 5), Material: 2}})
	hit := bvh.Traverse(NewRay(V(0, 0, 0), V(0, 0, 1)), 1e-4, InfinityT)
	if !hit.Ok || hit.Material != 2 {
		t.Errorf("hit = %+v", hit)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Counters{Cycles: 1100}
	b := Counters{Cycles: 1000}
	if s := Speedup(a, b); math.Abs(s-0.1) > 1e-9 {
		t.Errorf("Speedup = %v", s)
	}
}

// Property: any assembled straight-line integer program produces the
// same architectural result under baseline and SI (SI is timing-only).
func TestQuickSITransparencyOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("random program sweep")
	}
	f := func(seed uint8, imm1, imm2 int32) bool {
		// Build a small divergent kernel parameterized by the inputs.
		split := int32(seed % 31)
		src := strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(`
			S2R R0, SR0
			S2R R1, SR3
			SHL R2, R1, 7
			ISETP.LT P0, R0, SPLIT
			BSSY B0, join
			@P0 BRA left
			IADD R3, R2, 0x110000
			LDG R4, [R3+0] &wr=sb0
			IMUL R5, R4, IMM1 &req=sb0
			BRA join
		left:
			IADD R3, R2, 0x220000
			LDG R4, [R3+0] &wr=sb1
			IMUL R5, R4, IMM2 &req=sb1
			BRA join
		join:
			BSYNC B0
			SHL R6, R1, 2
			IADD R6, R6, 0x330000
			STG [R6+0], R5
			EXIT`,
			"SPLIT", itoa(split)), "IMM1", itoa(imm1%1000)), "IMM2", itoa(imm2%1000))

		prog, err := Assemble("rand", src)
		if err != nil {
			t.Fatalf("assembly failed: %v\n%s", err, src)
		}
		k := &Kernel{Program: prog, NumWarps: 4, WarpsPerCTA: 1, Memory: NewMemory()}
		outputs := func(cfg Config) []uint32 {
			res, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			var out []uint32
			for tid := 0; tid < 4*32; tid++ {
				out = append(out, res.Memory.Load(uint64(0x330000+tid*4)))
			}
			return out
		}
		base := outputs(DefaultConfig())
		si := outputs(DefaultConfig().WithSI(true, TriggerHalfStalled))
		for i := range base {
			if base[i] != si[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }
