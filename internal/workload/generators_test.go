package workload

import (
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
)

func TestGeneratorRegistry(t *testing.T) {
	names := GeneratorNames()
	want := []string{"bfs", "gemm", "texture"}
	if len(names) != len(want) {
		t.Fatalf("GeneratorNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("GeneratorNames = %v, want %v (sorted)", names, want)
		}
	}
	for _, g := range Generators() {
		if g.Title == "" {
			t.Errorf("%s: empty title", g.Name)
		}
		k, err := g.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", g.Name, err)
		}
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: kernel invalid: %v", g.Name, err)
		}
		// A build seeds its image, and an image is never written once
		// its kernel is handed out: builds must not share memory.
		k2, _ := g.Build()
		if k2.Memory == k.Memory {
			t.Errorf("%s: Build reuses the functional memory", g.Name)
		}
	}
}

func TestBuildByNameUnknown(t *testing.T) {
	_, err := BuildByName("raytrace")
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	// The error enumerates the registry so CLI callers can surface it.
	for _, name := range GeneratorNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

func TestGeneratorParamValidation(t *testing.T) {
	bad := []func() error{
		func() error { p := DefaultGEMM(); p.NumWarps = 0; return p.Validate() },
		func() error { p := DefaultGEMM(); p.TilesK = 0; return p.Validate() },
		func() error { p := DefaultGEMM(); p.LineBytes = 96; return p.Validate() },
		func() error { p := DefaultGEMM(); p.BufLog2 = 5; return p.Validate() },
		func() error { p := DefaultBFS(); p.Nodes = 1000; return p.Validate() },
		func() error { p := DefaultBFS(); p.HeavyDegree = 0; return p.Validate() },
		func() error { p := DefaultBFS(); p.HeavyDegree = p.MaxDegree + 1; return p.Validate() },
		func() error { p := DefaultBFS(); p.Levels = 0; return p.Validate() },
		func() error { p := DefaultTexture(); p.Iterations = 0; return p.Validate() },
		func() error { p := DefaultTexture(); p.RowBytes = 100; return p.Validate() },
		func() error { p := DefaultTexture(); p.TexLog2 = 2; return p.Validate() },
		func() error { p := DefaultTexture(); p.RowBytes = 1 << 20; return p.Validate() },
	}
	for i, check := range bad {
		if check() == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

// TestGEMMDivergenceFree pins the family's defining property: no
// branch ever splinters a warp, so SI (which only acts on divergence
// and stall demotion of diverged warps) must be cycle-exact inert.
func TestGEMMDivergenceFree(t *testing.T) {
	p := DefaultGEMM()
	p.NumWarps = 16
	p.TilesK = 8
	mk := func() *gpu.Result {
		k, err := GEMM(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := gpu.Run(config.Default(), k)
		if err != nil {
			t.Fatal(err)
		}
		return &r
	}
	r := mk()
	if r.Counters.DivergentBranches != 0 {
		t.Errorf("GEMM diverged %d times, want 0", r.Counters.DivergentBranches)
	}
	if r.Counters.ExposedLoadStalls == 0 {
		t.Error("GEMM exposed no load stalls; tile loads are not stressing the memory path")
	}
}

// TestBFSStressesSI pins the family's defining property: data-
// dependent divergence whose arms carry independent load chains, so
// SI finds stall-demotion work (the mechanism the paper builds).
func TestBFSStressesSI(t *testing.T) {
	p := DefaultBFS()
	p.NumWarps = 16
	p.Levels = 2
	run := func(cfg config.Config) gpu.Result {
		k, err := BFS(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := gpu.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(config.Default())
	si := run(config.Default().WithSI(false, config.TriggerHalfStalled))
	if base.Counters.DivergentBranches == 0 {
		t.Error("BFS did not diverge")
	}
	if si.Counters.SubwarpStalls == 0 {
		t.Error("SI found no subwarp-stall opportunities on BFS")
	}
	if si.Counters.SubwarpWakeups == 0 {
		t.Error("no subwarp wakeups: diverged arms carry no overlapping loads")
	}
}

// TestTextureMixedLatency pins the family's defining property: both
// the texture path and the regular load path are exercised, with mild
// content-dependent divergence.
func TestTextureMixedLatency(t *testing.T) {
	p := DefaultTexture()
	p.NumWarps = 16
	p.Iterations = 4
	k, err := Texture(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gpu.Run(config.Default(), k)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters
	if c.DivergentBranches == 0 {
		t.Error("texture alpha test never diverged")
	}
	if c.L1DAccesses == 0 {
		t.Error("no data-cache accesses")
	}
	// Every lane samples four corners per iteration over the texture
	// path plus one vertex fetch over the plain path; a missing class
	// would show up as an implausibly low access count.
	minLoads := int64(p.NumWarps) * 32 * int64(p.Iterations)
	if c.L1DAccesses < minLoads {
		t.Errorf("L1DAccesses = %d, want >= %d", c.L1DAccesses, minLoads)
	}
}
