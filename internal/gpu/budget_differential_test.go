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

// unevenBlocks gives each of an SM's four blocks one warp doing
// something else, forever: block 0 spins inside simple runs, block 1
// sleeps on one L1 miss after another, block 2 stores a fresh word a
// lane every few cycles, block 3 exits at once. A kill then finds one
// block mid-run and one asleep, the store-footprint kill among them.
func unevenBlocks(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.Assemble("uneven", `
.regs 8
    S2R R0, SR3
    SHR R1, R0, 6
    MOVI R2, 3
    IAND R1, R1, R2
    SHL R3, R0, 9
    ISETP.EQ P0, R1, 0
    @P0 BRA spin
    ISETP.EQ P0, R1, 1
    @P0 BRA sleep
    ISETP.EQ P0, R1, 2
    @P0 BRA store
    EXIT
spin:
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    IADD R4, R4, 1
    BRA spin
sleep:
    LDG R5, [R3+0] &wr=sb0
    IADD R6, R5, 1 &req=sb0
    IADD R3, R3, 16384
    BRA sleep
store:
    STG [R3+0], R3
    IADD R3, R3, 4
    IADD R7, R7, 1
    BRA store
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

// kill is where and how a budgeted run died: the error and the memory
// fingerprint. (A failing SM's counters are not returned at this level;
// internal/sm's TestKillSettlesSleepersAndRuns compares them.)
type kill struct {
	be     sm.BudgetError
	memory uint64
}

// killPoint runs the kernel and requires a BudgetError.
func killPoint(t *testing.T, cfg config.Config, p *isa.Program, b sm.Budget, workers int) kill {
	t.Helper()
	res, err := RunWorkers(cfg, budgetKernel(t, p, b), workers)
	var be *sm.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	return kill{*be, res.Memory.Fingerprint()}
}

// TestBudgetKillBitIdentical kills two kernels on each resource — one
// whose blocks move together, one whose blocks are mid-run, asleep and
// storing when the limit falls, at a few adjacent limits so that it
// falls on every phase of a run — and requires one kill point and one
// memory image from both regimes, every worker count, and the run loop
// with and without Config.Check.
func TestBudgetKillBitIdentical(t *testing.T) {
	programs := map[string]*isa.Program{"together": spinStore(t), "uneven": unevenBlocks(t)}
	budgets := map[string]func(i int64) sm.Budget{
		sm.ResourceCycles:       func(i int64) sm.Budget { return sm.Budget{MaxCycles: 3000 + i} },
		sm.ResourceInstructions: func(i int64) sm.Budget { return sm.Budget{MaxInstrs: 2000 + i} },
		sm.ResourceMemory:       func(i int64) sm.Budget { return sm.Budget{MaxMemBytes: 4096 + 128*i} },
	}
	for resource, budget := range budgets {
		t.Run(resource, func(t *testing.T) {
			for pname, p := range programs {
				for i := int64(0); i < 12; i += 3 {
					b := budget(i)
					cfg := config.Default()
					cfg.Compiled, cfg.Check = false, true
					ref := killPoint(t, cfg, p, b, 1)
					if ref.be.Resource != resource {
						t.Fatalf("%s %+v: killed on %q, want %q (%+v)", pname, b, ref.be.Resource, resource, ref.be)
					}
					for _, compiled := range []bool{true, false} {
						for _, check := range []bool{true, false} {
							for _, workers := range []int{1, 4} {
								cfg.Compiled, cfg.Check = compiled, check
								if got := killPoint(t, cfg, p, b, workers); got != ref {
									t.Errorf("%s %+v compiled=%v check=%v workers=%d: kill differs from the stepped lock-step reference:\n  got  %+v\n  want %+v",
										pname, b, compiled, check, workers, got, ref)
								}
							}
						}
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
		cfg := defaultConfig()
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
	cfg := defaultConfig()
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
