package gpu

import (
	"errors"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
)

// The gas-metering determinism contract: the same (config, kernel,
// budget) kills at the same point — same SM, same resource, same
// usage, same cycle — for every worker count and in both execution
// engines, and the partial memory image at the kill is bit-identical.
// These tests are the proof obligation ISSUE 9 names.

// spinStore loops forever, storing to a fresh word each iteration —
// exercises all three budget resources depending on which limit is
// tightest.
func spinStore(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.Assemble("spinstore", `
.regs 8
    S2R R0, SR3
    SHL R0, R0, 8
loop:
    STG [R0+0], R0
    IADD R0, R0, 4
    BRA loop
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func budgetKernel(t *testing.T, p *isa.Program, b sm.Budget) *sm.Kernel {
	t.Helper()
	return &sm.Kernel{
		Program:     p,
		NumWarps:    8,
		WarpsPerCTA: 2,
		Memory:      mem.NewMemory(),
		Budget:      &b,
	}
}

// killPoint runs the kernel and requires a BudgetError, returning it
// with the memory fingerprint at the kill.
func killPoint(t *testing.T, cfg config.Config, p *isa.Program, b sm.Budget, workers int) (sm.BudgetError, uint64) {
	t.Helper()
	res, err := RunWorkers(cfg, budgetKernel(t, p, b), workers)
	var be *sm.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	return *be, res.Memory.Fingerprint()
}

func TestBudgetKillBitIdentical(t *testing.T) {
	p := spinStore(t)
	budgets := map[string]sm.Budget{
		sm.ResourceCycles:       {MaxCycles: 3000},
		sm.ResourceInstructions: {MaxInstrs: 2000},
		sm.ResourceMemory:       {MaxMemBytes: 4096},
	}
	for resource, b := range budgets {
		t.Run(resource, func(t *testing.T) {
			var ref sm.BudgetError
			var refFP uint64
			first := true
			for _, compiled := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					cfg := config.Default()
					cfg.Compiled = compiled
					be, fp := killPoint(t, cfg, p, b, workers)
					if be.Resource != resource {
						t.Fatalf("compiled=%v workers=%d: killed on %q, want %q (%+v)",
							compiled, workers, be.Resource, resource, be)
					}
					if first {
						ref, refFP, first = be, fp, false
						continue
					}
					if be != ref {
						t.Errorf("compiled=%v workers=%d: kill point %+v differs from reference %+v",
							compiled, workers, be, ref)
					}
					if fp != refFP {
						t.Errorf("compiled=%v workers=%d: memory fingerprint %x differs from reference %x",
							compiled, workers, fp, refFP)
					}
				}
			}
		})
	}
}

// TestBudgetLargeEnoughIsInvisible: a budget the kernel fits inside
// must not perturb the simulation — counters and memory identical to
// an unbudgeted run.
func TestBudgetLargeEnoughIsInvisible(t *testing.T) {
	prog, err := isa.Assemble("bounded", `
.regs 8
    S2R R0, SR3
    SHL R1, R0, 2
    LDG R2, [R1+0] &wr=sb0
    IADD R2, R2, 7 &req=sb0
    STG [R1+4096], R2
    EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, compiled := range []bool{true, false} {
		cfg := config.Default()
		cfg.Compiled = compiled
		free := &sm.Kernel{Program: prog, NumWarps: 8, WarpsPerCTA: 2, Memory: mem.NewMemory()}
		resFree, err := Run(cfg, free)
		if err != nil {
			t.Fatalf("unbudgeted: %v", err)
		}
		capped := budgetKernel(t, prog, sm.Budget{MaxCycles: 1 << 30, MaxInstrs: 1 << 30, MaxMemBytes: 1 << 30})
		resCapped, err := Run(cfg, capped)
		if err != nil {
			t.Fatalf("budgeted: %v", err)
		}
		if resFree.Counters != resCapped.Counters {
			t.Errorf("compiled=%v: counters differ with a generous budget:\nfree:   %+v\ncapped: %+v",
				compiled, resFree.Counters, resCapped.Counters)
		}
		if a, b := resFree.Memory.Fingerprint(), resCapped.Memory.Fingerprint(); a != b {
			t.Errorf("compiled=%v: memory fingerprints differ: %x vs %x", compiled, a, b)
		}
	}
}

// TestBudgetErrorNamesSM: the wrapped error keeps the deterministic
// "first failing SM in SM order" contract and unwraps via errors.As.
func TestBudgetErrorNamesSM(t *testing.T) {
	cfg := config.Default()
	k := budgetKernel(t, spinStore(t), sm.Budget{MaxCycles: 500})
	_, err := RunWorkers(cfg, k, 4)
	var be *sm.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.SM != 0 {
		t.Errorf("first failing SM should be 0 (both exceed; SM order breaks the tie), got %d", be.SM)
	}
}
