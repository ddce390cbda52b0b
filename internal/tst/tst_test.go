package tst

import (
	"testing"

	"subwarpsim/internal/bits"
)

func newTable(max int) (*Table, *[bits.WarpSize]int) {
	var pcs [bits.WarpSize]int
	return New(&pcs, max), &pcs
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Inactive, Active, Ready, Blocked, Stalled} {
		if s.String() == "" || s.String()[0] == 'S' && s != Stalled {
			// just exercise String; detailed check below
		}
	}
	if Stalled.String() != "STALLED" || Ready.String() != "READY" {
		t.Error("state names should match the paper's")
	}
}

func TestActivateAndMasks(t *testing.T) {
	tab, _ := newTable(32)
	tab.ActivateAll(bits.FirstN(8))
	if tab.Mask(Active) != bits.FirstN(8) {
		t.Errorf("Active mask = %v", tab.Mask(Active))
	}
	if tab.Live() != bits.FirstN(8) {
		t.Errorf("Live = %v", tab.Live())
	}
	if tab.State(0) != Active || tab.State(8) != Inactive {
		t.Error("per-lane states wrong")
	}
}

func TestLiveSubwarps(t *testing.T) {
	tab, pcs := newTable(32)
	tab.ActivateAll(bits.FirstN(4))
	if tab.LiveSubwarps() != 1 {
		t.Errorf("convergent warp: LiveSubwarps = %d", tab.LiveSubwarps())
	}
	pcs[0], pcs[1], pcs[2], pcs[3] = 10, 10, 20, 30
	if tab.LiveSubwarps() != 3 {
		t.Errorf("LiveSubwarps = %d, want 3", tab.LiveSubwarps())
	}
	tab.Exit(bits.FirstN(4))
	if tab.LiveSubwarps() != 0 {
		t.Errorf("exited warp: LiveSubwarps = %d", tab.LiveSubwarps())
	}
}

func TestStallAndWakeup(t *testing.T) {
	tab, _ := newTable(32)
	sub := bits.FirstN(4)
	tab.ActivateAll(sub)
	ok := tab.Stall(sub, 5, func(lane int) int { return 2 })
	if !ok {
		t.Fatal("stall rejected with empty table")
	}
	if tab.Mask(Stalled) != sub {
		t.Fatalf("Stalled mask = %v", tab.Mask(Stalled))
	}
	// Writeback of a different scoreboard does nothing.
	if tab.Writeback(0, 3) {
		t.Error("mismatched sbid should not wake")
	}
	// First matching writeback decrements; second wakes.
	if tab.Writeback(0, 5) {
		t.Error("count 2 -> 1, should not wake yet")
	}
	if !tab.Writeback(0, 5) {
		t.Error("count 1 -> 0, should wake")
	}
	if tab.State(0) != Ready {
		t.Errorf("lane 0 state = %v, want READY", tab.State(0))
	}
	if tab.State(1) != Stalled {
		t.Errorf("lane 1 must remain STALLED")
	}
	// A woken lane ignores further writebacks.
	if tab.Writeback(0, 5) {
		t.Error("Ready lane must not wake again")
	}
}

func TestStallZeroCountGoesReady(t *testing.T) {
	// A lane whose data already returned skips STALLED entirely.
	tab, _ := newTable(32)
	tab.ActivateAll(bits.FirstN(2))
	tab.Stall(bits.FirstN(2), 1, func(lane int) int {
		if lane == 0 {
			return 0
		}
		return 1
	})
	if tab.State(0) != Ready || tab.State(1) != Stalled {
		t.Errorf("states = %v/%v", tab.State(0), tab.State(1))
	}
}

func TestStallCapacity(t *testing.T) {
	// A 3-entry table supports 3 overlapping subwarps: 2 demoted plus
	// the active one, so the third demotion is rejected.
	tab, pcs := newTable(3)
	tab.ActivateAll(bits.FirstN(8))
	pcs[0], pcs[1] = 10, 10
	pcs[2], pcs[3] = 20, 20
	pcs[4], pcs[5] = 30, 30
	if !tab.Stall(bits.Mask(0b11), 1, func(int) int { return 1 }) {
		t.Fatal("first stall should fit")
	}
	if !tab.Stall(bits.Mask(0b1100), 2, func(int) int { return 1 }) {
		t.Fatal("second stall should fit")
	}
	if tab.StalledSubwarps() != 2 {
		t.Fatalf("StalledSubwarps = %d", tab.StalledSubwarps())
	}
	if tab.Stall(bits.Mask(0b110000), 3, func(int) int { return 1 }) {
		t.Fatal("third stall must be rejected (TST full)")
	}
	if tab.State(4) != Active {
		t.Error("rejected stall must leave lanes Active")
	}
	// Waking a group frees its entry.
	tab.Writeback(0, 1)
	tab.Writeback(1, 1)
	if tab.StalledSubwarps() != 1 {
		t.Fatalf("after wake StalledSubwarps = %d", tab.StalledSubwarps())
	}
	if !tab.Stall(bits.Mask(0b110000), 3, func(int) int { return 1 }) {
		t.Fatal("stall should fit after wakeup freed an entry")
	}
}

func TestStallCapacityTwoEntries(t *testing.T) {
	// K=2 means one demoted subwarp plus the active one.
	tab, pcs := newTable(2)
	tab.ActivateAll(bits.FirstN(4))
	pcs[0], pcs[1] = 10, 10
	pcs[2], pcs[3] = 20, 20
	if !tab.Stall(bits.Mask(0b11), 1, func(int) int { return 1 }) {
		t.Fatal("first stall should fit")
	}
	if tab.Stall(bits.Mask(0b1100), 2, func(int) int { return 1 }) {
		t.Fatal("second stall must be rejected with K=2")
	}
}

func TestStallEmptyMask(t *testing.T) {
	tab, _ := newTable(32)
	if tab.Stall(0, 1, func(int) int { return 1 }) {
		t.Error("empty stall should be rejected")
	}
}

func TestStallPanicsOnNonActive(t *testing.T) {
	tab, _ := newTable(32)
	defer func() {
		if recover() == nil {
			t.Error("stalling an Inactive lane should panic")
		}
	}()
	tab.Stall(bits.LaneMask(0), 1, func(int) int { return 1 })
}

func TestYield(t *testing.T) {
	tab, _ := newTable(32)
	tab.ActivateAll(bits.FirstN(4))
	tab.Yield(bits.FirstN(4))
	if tab.Mask(Ready) != bits.FirstN(4) {
		t.Errorf("Ready = %v after yield", tab.Mask(Ready))
	}
}

func TestSelectRoundRobin(t *testing.T) {
	tab, pcs := newTable(32)
	tab.ActivateAll(bits.FirstN(6))
	pcs[0], pcs[1] = 10, 10
	pcs[2], pcs[3] = 20, 20
	pcs[4], pcs[5] = 30, 30
	tab.Yield(bits.FirstN(6)) // all three subwarps Ready; rotor at PC 10

	// The yield advanced the rotor past PC 10, so selection starts at
	// the *next* subwarp and never immediately re-picks a yielder.
	s1, ok := tab.Select()
	if !ok || s1.PC != 20 || s1.Mask != bits.Mask(0b1100) {
		t.Fatalf("first select = %+v ok=%v", s1, ok)
	}
	if tab.State(2) != Active {
		t.Error("selected lanes must be Active")
	}
	tab.Yield(s1.Mask) // put it back

	s2, _ := tab.Select()
	if s2.PC != 30 {
		t.Fatalf("round robin should advance: got PC %d", s2.PC)
	}
	tab.Yield(s2.Mask)
	s3, _ := tab.Select()
	if s3.PC != 10 {
		t.Fatalf("wraparound select PC = %d, want 10", s3.PC)
	}
	tab.Yield(s3.Mask)
	s4, _ := tab.Select()
	if s4.PC != 20 {
		t.Fatalf("fourth select PC = %d, want 20", s4.PC)
	}
}

func TestSelectNoneReady(t *testing.T) {
	tab, _ := newTable(32)
	tab.ActivateAll(bits.FirstN(2))
	if _, ok := tab.Select(); ok {
		t.Error("no Ready lanes: select must fail")
	}
}

// TestReadySubwarpsSorted: interleaved Ready lanes group by PC, and with
// the rotor at the highest PC Select hands the groups out in ascending
// PC order.
func TestReadySubwarpsSorted(t *testing.T) {
	tab, pcs := newTable(32)
	tab.ActivateAll(bits.FirstN(6))
	pcs[0], pcs[2], pcs[4] = 30, 10, 20
	pcs[1], pcs[3], pcs[5] = 30, 10, 20
	tab.Yield(bits.FirstN(6)) // the rotor takes lane 0's PC, 30
	for _, want := range []ReadySubwarp{
		{PC: 10, Mask: bits.LaneMask(2).Set(3)},
		{PC: 20, Mask: bits.LaneMask(4).Set(5)},
		{PC: 30, Mask: bits.LaneMask(0).Set(1)},
	} {
		got, ok := tab.Select()
		if !ok || got != want {
			t.Fatalf("Select = %+v (ok=%v), want %+v", got, ok, want)
		}
	}
}

func TestBlockAndRelease(t *testing.T) {
	tab, _ := newTable(32)
	tab.ActivateAll(bits.FirstN(4))
	tab.Block(bits.FirstN(4))
	if tab.Mask(Blocked) != bits.FirstN(4) {
		t.Error("Block failed")
	}
	tab.Release(bits.FirstN(4))
	if tab.Mask(Active) != bits.FirstN(4) {
		t.Error("Release failed")
	}
}

func TestReleasePanicsOnNonBlocked(t *testing.T) {
	tab, _ := newTable(32)
	tab.ActivateAll(bits.LaneMask(0))
	defer func() {
		if recover() == nil {
			t.Error("releasing an Active lane should panic")
		}
	}()
	tab.Release(bits.LaneMask(0))
}

func TestExitClearsScoreboardRecord(t *testing.T) {
	tab, _ := newTable(1)
	tab.ActivateAll(bits.LaneMask(0))
	tab.Stall(bits.LaneMask(0), 2, func(int) int { return 5 })
	tab.Exit(bits.LaneMask(0))
	if tab.StalledSubwarps() != 0 {
		t.Error("exit should free the demotion entry")
	}
	if tab.Writeback(0, 2) {
		t.Error("inactive lane must not wake")
	}
}

func TestCapacityClamping(t *testing.T) {
	tab, _ := newTable(0)
	if tab.MaxSubwarps() != 1 {
		t.Errorf("clamped min = %d", tab.MaxSubwarps())
	}
	tab2, _ := newTable(100)
	if tab2.MaxSubwarps() != 32 {
		t.Errorf("clamped max = %d", tab2.MaxSubwarps())
	}
}

// Figure 10a trace at the TST level: two 1-thread subwarps, the active
// one stalls, the other is selected, wakeups arrive.
func TestFig10aStateSequence(t *testing.T) {
	tab, pcs := newTable(32)
	tab.ActivateAll(bits.FirstN(2))

	// Step 1: divergence — t0 goes READY at the else path (PC 7),
	// t1 stays ACTIVE at PC 3.
	pcs[0], pcs[1] = 7, 3
	tab.SetState(0, Ready)
	if tab.State(0) != Ready || tab.State(1) != Active {
		t.Fatal("diverge step wrong")
	}

	// Step 4: t1 suffers a load-to-use stall on sb5.
	if !tab.Stall(bits.LaneMask(1), 5, func(int) int { return 1 }) {
		t.Fatal("stall rejected")
	}
	// Step 5-6: selection activates t0.
	sel, ok := tab.Select()
	if !ok || sel.Mask != bits.LaneMask(0) || sel.PC != 7 {
		t.Fatalf("select = %+v", sel)
	}
	// Step 7: t0 stalls on sb2.
	pcs[0] = 8
	if !tab.Stall(bits.LaneMask(0), 2, func(int) int { return 1 }) {
		t.Fatal("second stall rejected")
	}
	// Background: t1's texture returns; t1 wakes.
	if !tab.Writeback(1, 5) {
		t.Fatal("t1 should wake")
	}
	// Step 8: t1 selected again.
	sel, ok = tab.Select()
	if !ok || sel.Mask != bits.LaneMask(1) {
		t.Fatalf("reselect = %+v ok=%v", sel, ok)
	}
	// Step 9-10: t1 reaches BSYNC and blocks.
	pcs[1] = 10
	tab.Block(bits.LaneMask(1))
	if tab.State(1) != Blocked {
		t.Fatal("t1 should be BLOCKED")
	}
	// t0 wakes and is selected; warp continues.
	tab.Writeback(0, 2)
	sel, ok = tab.Select()
	if !ok || sel.Mask != bits.LaneMask(0) {
		t.Fatalf("final select = %+v", sel)
	}
}
