// Package sm implements the cycle-level Turing-like streaming
// multiprocessor: processing blocks with warp schedulers, convergence-
// barrier divergence handling, count-based scoreboards, L0/L1
// instruction caches, an L1 data cache over a fixed-latency memory
// stub, texture and load/store writeback paths, an RT core, and the
// Subwarp Interleaving subwarp scheduler of Section III.
package sm

import (
	"fmt"
	"math"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/scoreboard"
	"subwarpsim/internal/tst"
)

// Warp is one resident warp's architectural and scheduling state.
type Warp struct {
	// Identity (drives S2R special registers).
	ID        int // global warp index in the launch
	CTAID     int
	WarpInCTA int
	CTASize   int // threads per CTA

	// Architectural state.
	pcs   [bits.WarpSize]int
	regs  [bits.WarpSize][isa.NumRegs]uint32
	preds [bits.WarpSize][isa.NumPreds]bool

	// Divergence and scheduling state.
	tab      *tst.Table
	sb       *scoreboard.File
	barriers [isa.NumBarriers]bits.Mask

	active   bits.Mask // cached tst Active mask (all at activePC)
	activePC int

	// Fetch state.
	fetchReadyAt int64
	fetchingLine uint64
	fetchedLine  uint64 // last line known resident; math.MaxUint64 when none

	// Subwarp-select state.
	pendingSelect bool
	selectDoneAt  int64

	// Yield bookkeeping: long-latency ops issued since activation.
	longOpsSinceActivation int

	// slot is the warp's index in its block's warps slice, so writeback
	// events can mark the owning slot dirty without a search.
	slot int

	// diverged remembers Diverged() while divKnown is set. Lane PCs and
	// the live mask change only when the warp itself executes, so
	// Block.issue and ffCommit clear divKnown and the idle
	// classification rescans the lanes once per issue, not once per idle
	// cycle.
	divKnown, diverged bool

	exited bool
}

// newWarp initializes a resident warp: all 32 threads Active at PC 0.
func newWarp(id, ctaID, warpInCTA, ctaSize, nsb, maxSubwarps int) *Warp {
	w := &Warp{
		ID:        id,
		CTAID:     ctaID,
		WarpInCTA: warpInCTA,
		CTASize:   ctaSize,
		sb:        scoreboard.NewFile(nsb),
	}
	w.tab = tst.New(&w.pcs, maxSubwarps)
	w.tab.ActivateAll(bits.FullMask)
	w.active = bits.FullMask
	w.activePC = 0
	w.fetchedLine = math.MaxUint64
	w.fetchingLine = math.MaxUint64
	return w
}

// Active returns the current active subwarp's mask.
func (w *Warp) Active() bits.Mask { return w.active }

// PC returns the active subwarp's program counter.
func (w *Warp) PC() int { return w.activePC }

// Exited reports whether every thread has left the program.
func (w *Warp) Exited() bool { return w.exited }

// Table exposes the warp's thread status table (for inspection/tests).
func (w *Warp) Table() *tst.Table { return w.tab }

// Scoreboards exposes the warp's scoreboard file.
func (w *Warp) Scoreboards() *scoreboard.File { return w.sb }

// Diverged reports whether the warp currently has more than one live
// subwarp, the condition under which exposed stalls count as
// "in divergent code blocks" (Fig. 3).
func (w *Warp) Diverged() bool { return w.tab.DivergedLive() }

// divergedCached is Diverged() through the remembered bit; check
// (Config.Check) rescans the lanes at every read of a remembered bit
// and panics on a mismatch.
func (w *Warp) divergedCached(check bool) bool {
	if !w.divKnown {
		w.diverged, w.divKnown = w.Diverged(), true
	} else if check && w.diverged != w.Diverged() {
		panic(fmt.Sprintf("sm: warp %d remembers diverged=%v, its lanes say %v", w.ID, w.diverged, !w.diverged))
	}
	return w.diverged
}

// special reads an S2R special register for one lane.
func (w *Warp) special(sr int, lane int) uint32 {
	switch sr {
	case isa.SRLaneID:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(w.WarpInCTA)
	case isa.SRCTAID:
		return uint32(w.CTAID)
	case isa.SRThreadID:
		return uint32(w.CTAID*w.CTASize + w.WarpInCTA*bits.WarpSize + lane)
	default:
		panic(fmt.Sprintf("sm: unknown special register %d", sr))
	}
}

// activate makes the given PC-aligned group the active subwarp and
// advances the selection rotor past it.
func (w *Warp) activate(mask bits.Mask, pc int) {
	w.active = mask
	w.activePC = pc
	w.longOpsSinceActivation = 0
	w.tab.NoteActivated(pc)
}

// dropActive clears the active subwarp after its threads transitioned
// elsewhere (stall, yield, block, exit).
func (w *Warp) dropActive() {
	w.active = 0
}

// setActivePCs advances every active thread's per-thread PC to pc.
func (w *Warp) setActivePCs(pc int) {
	for it := w.active; !it.Empty(); it = it.DropLowest() {
		w.pcs[it.Lowest()] = pc
	}
	w.activePC = pc
}

// selectImmediate is the baseline divergence unit's zero-cost subwarp
// switch used at BSYNC and thread exit: pick a READY subwarp and
// activate it. It returns false when none is ready.
func (w *Warp) selectImmediate() bool {
	sub, ok := w.tab.Select()
	if !ok {
		return false
	}
	w.activate(sub.Mask, sub.PC)
	return true
}

// checkExit marks the warp exited once no live threads remain.
func (w *Warp) checkExit() {
	if w.tab.Live().Empty() {
		w.exited = true
		w.dropActive()
	}
}
