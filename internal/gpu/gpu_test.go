package gpu

import (
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
)

// storeTID builds a kernel where each thread stores its global ID.
func storeTID() *sm.Kernel {
	b := isa.NewBuilder("storetid")
	b.S2R(1, isa.SRThreadID)
	b.Shl(2, 1, 2)
	b.Movi(3, 0x4000)
	b.Iadd(2, 2, 3)
	b.Stg(2, 0, 1)
	return &sm.Kernel{
		Program:     b.Exit().MustBuild(),
		NumWarps:    20,
		WarpsPerCTA: 2,
		Memory:      mem.NewMemory(),
	}
}

func TestRunDistributesAllWarps(t *testing.T) {
	res, err := Run(defaultConfig(), storeTID())
	if err != nil {
		t.Fatal(err)
	}
	// All 20 warps x 32 threads stored their global IDs.
	for tid := 0; tid < 20*32; tid++ {
		if got := res.Memory.Load(uint64(0x4000 + tid*4)); got != uint32(tid) {
			t.Fatalf("tid %d stored %d", tid, got)
		}
	}
	if res.Counters.IssuedInstrs != 20*6 {
		t.Errorf("IssuedInstrs = %d, want %d", res.Counters.IssuedInstrs, 20*6)
	}
	if res.Blocks != 8 {
		t.Errorf("Blocks = %d, want 8 (2 SMs x 4)", res.Blocks)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	bad := defaultConfig()
	bad.NumSMs = 0
	if _, err := Run(bad, storeTID()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunValidatesKernel(t *testing.T) {
	k := storeTID()
	k.NumWarps = 0
	if _, err := Run(defaultConfig(), k); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(defaultConfig(), storeTID())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(defaultConfig(), storeTID())
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Errorf("nondeterministic counters:\n%+v\n%+v", a.Counters, b.Counters)
	}
}

func TestDerived(t *testing.T) {
	res, err := Run(defaultConfig(), storeTID())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Derived()
	if d.Cycles != res.Counters.Cycles {
		t.Error("Derived cycles mismatch")
	}
	if d.IPC <= 0 {
		t.Error("IPC should be positive")
	}
}

func TestCompare(t *testing.T) {
	base := defaultConfig()
	si := base.WithSI(true, config.TriggerHalfStalled)
	rb, rt, sp, err := Compare(base, si, storeTID())
	if err != nil {
		t.Fatal(err)
	}
	if rb.Counters.Cycles == 0 || rt.Counters.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	// A convergent kernel: SI neither helps nor hurts materially.
	if sp < -0.05 || sp > 0.05 {
		t.Errorf("speedup on convergent kernel = %.3f, want ~0", sp)
	}
}

func TestCompareErrorPropagates(t *testing.T) {
	bad := storeTID()
	bad.Program = nil
	if _, _, _, err := Compare(defaultConfig(), defaultConfig(), bad); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunErrorNamesSM(t *testing.T) {
	// An infinite loop exhausts the cycle budget and the error should
	// identify which SM failed.
	b := isa.NewBuilder("spin")
	b.Label("top")
	b.Movi(1, 1)
	b.Bra("top")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := &sm.Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	old := MaxCycles
	MaxCycles = 100_000
	defer func() { MaxCycles = old }()
	_, err = Run(defaultConfig(), k)
	if err == nil {
		t.Fatal("expected cycle-budget error")
	}
	if !strings.Contains(err.Error(), "SM") {
		t.Errorf("error should identify the SM: %v", err)
	}
}

func TestSingleWarpSmallerThanSMCount(t *testing.T) {
	k := storeTID()
	k.NumWarps = 1
	res, err := Run(defaultConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.IssuedInstrs != 6 {
		t.Errorf("IssuedInstrs = %d, want 6", res.Counters.IssuedInstrs)
	}
}
