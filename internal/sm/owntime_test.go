package sm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/stats"
)

// Every way out of the run loop settles the blocks' own time: a block
// asleep owes its idle cycles up to the exit cycle and a block inside a
// run commits only the retired prefix, so the counters an exit returns
// are lock-step's (Config.Check) at the same cycle, in both regimes.

// roles puts one warp on each of four blocks, each doing something
// else: block 0 spins inside simple runs, block 1 sleeps on one L1 miss
// after another, block 2 stores a fresh word a lane every few cycles,
// and block 3 either exits at once or (stuck) blocks its two halves at
// different BSYNCs of one barrier and can never move again. The first
// three loop `trips` times (forever when trips is 0).
func roles(t *testing.T, trips int, stuck bool) *isa.Program {
	t.Helper()
	last := "    EXIT\n"
	if stuck {
		last = `
    S2R R2, SR0
    ISETP.LT P1, R2, 16
    BSSY B0, out
    @P1 BRA other
    BSYNC B0
other:
    BSYNC B0
out:
    EXIT
`
	}
	p, err := isa.Assemble("roles", fmt.Sprintf(`
.regs 12
    S2R R0, SR3
    SHR R1, R0, 5
    SHL R3, R0, 9
    MOVI R8, %d
    ISETP.EQ P0, R1, 0
    @P0 BRA spin
    ISETP.EQ P0, R1, 1
    @P0 BRA sleep
    ISETP.EQ P0, R1, 2
    @P0 BRA store
%s
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
    IADD R8, R8, -1
    ISETP.EQ P0, R8, 0
    @!P0 BRA spin
    EXIT
sleep:
    LDG R5, [R3+0] &wr=sb0
    IADD R6, R5, 1 &req=sb0
    IADD R3, R3, 16384
    IADD R8, R8, -1
    ISETP.EQ P0, R8, 0
    @!P0 BRA sleep
    EXIT
store:
    IADD R7, R7, 1
    IADD R7, R7, 1
    STG [R3+0], R3
    IADD R3, R3, 4
    IADD R8, R8, -1
    ISETP.EQ P0, R8, 0
    @!P0 BRA store
    EXIT
`, trips, last))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rolesSM is a four-block SM with one roles warp admitted to each.
func rolesSM(t *testing.T, prog *isa.Program, compiled, check bool, budget *Budget) *SM {
	t.Helper()
	cfg := config.Default()
	cfg.NumSMs, cfg.Compiled, cfg.Check = 1, compiled, check
	k := &Kernel{Program: prog, NumWarps: 4, WarpsPerCTA: 4, Memory: mem.NewMemory(), Budget: budget}
	s, err := NewSM(0, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Admit(i, i, 0, i)
	}
	return s
}

// exit is how a run ended: its error, and what it left behind,
// engine counts included.
type exit struct {
	err      string
	counters stats.Counters
	memory   uint64
	engine   Engine
}

// stepped drops what the stepped regime (Compiled off) cannot share
// with the fast-forward lock-step reference: its engine counts, since
// it plans no runs.
func stepped(e exit, compiled bool, ref exit) exit {
	if !compiled {
		e.engine = ref.engine
	}
	return e
}

// exitState is where the blocks stood, in their own time, when the
// loop's last iteration began: whether one was inside a run with cycles
// not yet committed, and whether one was asleep.
type exitState struct{ midRun, asleep bool }

// driveToExit runs the SM through advance, the loop RunContext runs,
// until it reports done.
func driveToExit(s *SM, maxCycles int64) (exit, exitState) {
	for {
		var st exitState
		for _, blk := range s.blocks {
			if blk.done || blk.due <= s.now {
				continue
			}
			if blk.runLen > 0 {
				st.midRun = st.midRun || blk.counters.Cycles < s.now
			} else {
				st.asleep = true
			}
		}
		if done, err := s.advance(maxCycles); done {
			e := exit{counters: s.merge(), memory: s.mem.Fingerprint(), engine: s.Engine()}
			if err != nil {
				e.err = err.Error()
			}
			return e, st
		}
	}
}

// TestKillSettlesSleepersAndRuns sweeps each budget limit over a few
// adjacent values, so that kills land at every phase of block 0's run
// while block 1 sleeps — the store-footprint kills caused by block 2 —
// and requires the kill point, the counters and the memory image of
// the own-time loop to be lock-step's in both regimes.
func TestKillSettlesSleepersAndRuns(t *testing.T) {
	prog := roles(t, 0, false)
	for _, tc := range []struct {
		resource string
		budget   func(i int64) Budget
	}{
		{ResourceInstructions, func(i int64) Budget { return Budget{MaxInstrs: 2500 + i} }},
		{ResourceCycles, func(i int64) Budget { return Budget{MaxCycles: 1800 + i} }},
		{ResourceMemory, func(i int64) Budget { return Budget{MaxMemBytes: 16384 + 128*i} }},
	} {
		t.Run(tc.resource, func(t *testing.T) {
			var seen exitState
			budgetEnds := false
			for i := int64(0); i < 14; i++ {
				b := tc.budget(i)
				want, _ := driveToExit(rolesSM(t, prog, true, true, &b), math.MaxInt64-1)
				var be *BudgetError
				if _, err := rolesSM(t, prog, true, true, &b).Run(math.MaxInt64 - 1); !errors.As(err, &be) || be.Resource != tc.resource {
					t.Fatalf("%+v: want a %s kill, got %v", b, tc.resource, err)
				}
				budgetEnds = budgetEnds || want.engine.Ends[EndBudget] > 0
				for _, compiled := range []bool{true, false} {
					got, st := driveToExit(rolesSM(t, prog, compiled, false, &b), math.MaxInt64-1)
					if got = stepped(got, compiled, want); got != want {
						t.Errorf("%+v compiled=%v: exit differs from lock-step's:\n  own time  %+v\n  lock-step %+v", b, compiled, got, want)
					}
					seen.midRun = seen.midRun || st.midRun
					seen.asleep = seen.asleep || st.asleep
				}
			}
			if !seen.midRun || !seen.asleep {
				t.Errorf("no kill landed inside a run (%v) or beside a sleeping block (%v): nothing was settled", seen.midRun, seen.asleep)
			}
			if !budgetEnds {
				t.Error("no run was counted as ended by the budget")
			}
		})
	}
}

// TestDeadlockSettlesSleepers: block 3 deadlocks within a few cycles
// and sleeps with no event to wake it; the SM reports the deadlock only
// when the other blocks have finished, thousands of cycles later, and
// block 3 must by then have been charged every one of them.
func TestDeadlockSettlesSleepers(t *testing.T) {
	prog := roles(t, 8, true)
	want, _ := driveToExit(rolesSM(t, prog, true, true, nil), 1<<30)
	var de *DeadlockError
	if _, err := rolesSM(t, prog, true, true, nil).Run(1 << 30); !errors.As(err, &de) || de.Cycle < 1000 {
		t.Fatalf("want a deadlock found late, got %v", err)
	}
	for _, compiled := range []bool{true, false} {
		got, st := driveToExit(rolesSM(t, prog, compiled, false, nil), 1<<30)
		if got = stepped(got, compiled, want); got != want {
			t.Errorf("compiled=%v: exit differs from lock-step's:\n  own time  %+v\n  lock-step %+v", compiled, got, want)
		}
		if !st.asleep {
			t.Errorf("compiled=%v: no block was asleep when the deadlock was found", compiled)
		}
	}
}

// cancelOnCall is a context whose Err starts reporting cancellation at
// its n-th call, which makes the loop iteration that observes it
// deterministic.
type cancelOnCall struct {
	context.Context
	n int
}

func (c *cancelOnCall) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelAndCycleLimitInsideARun cancels the fast-forward regime at
// a loop iteration that finds blocks inside runs, and requires the
// counters it returns to be those lock-step stepping has at that cycle
// — which the cycle limit, stopping a run at the cycle before, returns —
// and then holds the cycle limit itself to lock-step's exit.
func TestCancelAndCycleLimitInsideARun(t *testing.T) {
	prog := roles(t, 0, false)
	s := rolesSM(t, prog, true, false, nil)
	got, err := s.RunContext(&cancelOnCall{Context: context.Background(), n: 3}, 1<<30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a cancellation, got %v", err)
	}
	at := s.now
	if got.Cycles != at {
		t.Errorf("cancelled at cycle %d with counters settled to %d", at, got.Cycles)
	}
	midRun := false
	for _, blk := range s.blocks {
		midRun = midRun || (blk.runLen > 0 && blk.due > at)
	}
	if !midRun {
		t.Errorf("cycle %d: no block was inside a run when the cancellation was observed", at)
	}
	// The cycle limit lands on every phase of the runs in turn.
	for limit := at - 1; limit > at-15; limit-- {
		want, _ := driveToExit(rolesSM(t, prog, true, true, nil), limit)
		if want.err == "" || (limit == at-1 && want.counters != got) {
			t.Errorf("lock-step stopped by a %d-cycle limit (%q) with\n  %+v\ncancelled at cycle %d with\n  %+v",
				limit, want.err, want.counters, at, got)
		}
		for _, compiled := range []bool{true, false} {
			if limited, _ := driveToExit(rolesSM(t, prog, compiled, false, nil), limit); stepped(limited, compiled, want) != want {
				t.Errorf("compiled=%v: a %d-cycle limit's exit differs from lock-step's:\n  own time  %+v\n  lock-step %+v",
					compiled, limit, limited, want)
			}
		}
	}
}
