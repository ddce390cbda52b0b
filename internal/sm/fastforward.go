package sm

import (
	"math"

	"subwarpsim/internal/tst"
)

// Basic-block fast-forward: with cfg.Compiled set and no trace
// recorder attached, SM.RunContext retires eligible straight-line
// convergent regions in bulk instead of one lock-step cycle at a time.
// The stepped regime (cfg.Compiled = false, or a recorder attached)
// runs the same executor cycle by cycle, and the two are required to be
// bit-identical — counters, memory, kill points — which the regime
// differential, matrix, budget and fuzz suites enforce.
//
// After a lock-step cycle in which every non-done block either issued
// or is provably idle, SM.ffHorizon asks each block how many upcoming
// cycles are "inert": the issuing warp sits in a fast-forward-simple
// run (isa.Compiled.FFLen) confined to its already-fetched icache
// line, so for every cycle before the horizon
//
//   - the block's scheduler would re-pick the same warp (greedy
//     last-issued-first over frozen statuses),
//   - executing the op touches only that warp's registers, predicates,
//     or convergence-barrier masks — state no other warp, block, or
//     counter observes mid-run,
//   - no writeback, select completion, or fetch fill is due (the
//     horizon is capped by nextEventTime, which covers all three), and
//   - with SI enabled, no per-stepped-cycle policy action could fire:
//     no warp is scoreboard-stalled (demotion and its TSTOverflow
//     accounting re-run every stepped cycle) and subwarp-select would
//     not initiate on the frozen statuses (ffStable).
//
// Under those conditions ffCommit retires the whole window in one
// call with cycle-exact counters, and idle blocks account the same
// window through the existing skipIdle path. Fast-forward is off
// (SM.ffLen stays nil) when a trace recorder is attached, so a traced
// run is a stepped run and its event stream is produced exactly.

// ffStable reports whether skipping stepped cycles is invisible to the
// block's SI policy state: no warp awaits a per-cycle demotion
// attempt, and subwarp-select cannot initiate on the frozen statuses.
// Always true with SI disabled (the baseline has no per-stepped-cycle
// policy actions).
func (b *Block) ffStable() bool {
	if !b.cfg.SI.Enabled {
		return true
	}
	stalled, live := 0, 0
	for i, w := range b.warps {
		if b.statuses[i] == classScbdWait {
			return false
		}
		if w.exited {
			continue
		}
		live++
		if b.statuses[i] == classNoActive {
			stalled++
		}
	}
	if !b.cfg.SI.Trigger.Satisfied(stalled, live) {
		return true
	}
	for i, w := range b.warps {
		if b.statuses[i] != classNoActive || w.pendingSelect {
			continue
		}
		if !w.tab.Mask(tst.Ready).Empty() {
			// maybeTriggerSelect would initiate on this warp next cycle
			// (one initiation per block per cycle), so cycles cannot be
			// skipped.
			return false
		}
	}
	return true
}

// ffRun returns how many consecutive cycles the block's last-issued
// warp can retire without any observable scheduling event: the length
// of the fast-forward-simple run at its PC, capped to the instructions
// remaining on its already-fetched icache line (crossing a line
// boundary requires the per-cycle fetch probe). Returns 0 when the
// warp is not simply advancing (exited, switched, diverted, or its
// next instruction needs a fetch or is not simple).
func (b *Block) ffRun() int64 {
	w := b.warps[b.lastPick]
	if w.exited || w.pendingSelect || w.active.Empty() || w.fetchingLine != math.MaxUint64 {
		return 0
	}
	pc := w.activePC
	if pc >= len(b.ffLen) {
		return 0 // ran off the end: the next stepped fetch reports it
	}
	run := int64(b.ffLen[pc])
	if run == 0 {
		return 0
	}
	ib := uint64(b.cfg.InstrBytes)
	lb := uint64(b.cfg.CacheLineBytes)
	line := uint64(pc) * ib / lb
	if line != w.fetchedLine {
		return 0
	}
	lastPC := int64(((line+1)*lb - 1) / ib)
	if left := lastPC - int64(pc) + 1; run > left {
		run = left
	}
	return run
}

// ffCommit retires gap cycles of the last-issued warp's simple run in
// one call, with exactly the counters cycle-by-cycle execution would
// have accrued: gap issue cycles, gap instructions, gap×|active|
// threads. Each op goes through the same Warp.applySimple a stepped
// issue uses; the per-op PC writes are batched into one setActivePCs at
// the end — intermediate PCs are unobservable inside the window (no
// events, no tracing, no cross-warp reads). The warp stays dirty from
// its issue at the window's base cycle, so the first stepped cycle at
// the horizon re-classifies it as usual.
func (b *Block) ffCommit(gap, endCycle int64) {
	w := b.warps[b.lastPick]
	mask := w.active
	pc := w.activePC
	b.counters.IssueCycles += gap
	b.counters.IssuedInstrs += gap
	b.counters.ActiveThreads += gap * int64(mask.Count())
	for end := pc + int(gap); pc < end; pc++ {
		w.applySimple(mask, b.fetch(pc))
	}
	w.setActivePCs(pc)
	w.divKnown = false
	b.counters.Cycles = endCycle
}

// ffHorizon returns the exclusive upper bound of the window the SM may
// retire in bulk after the lock-step cycle at now: at most next (the
// earliest scheduled event anywhere), further capped by every issuing
// block's simple-run length. It returns now+1 — plain single-cycle
// advance — whenever fast-forward is off, nothing issued, or any block
// cannot guarantee an inert window.
func (s *SM) ffHorizon(now, next int64, anyIssued bool) int64 {
	if s.ffLen == nil || !anyIssued || next <= now+1 {
		return now + 1
	}
	h := next
	bounded := false
	for _, blk := range s.blocks {
		if blk.done {
			continue
		}
		if !blk.ffStable() {
			return now + 1
		}
		if blk.lastPick >= 0 {
			r := blk.ffRun()
			if r <= 0 {
				return now + 1
			}
			bounded = true
			if hh := now + 1 + r; hh < h {
				h = hh
			}
		}
	}
	if !bounded {
		// The issuing block(s) finished during this step (anyIssued came
		// from a block that is now done), so no run bounds the window;
		// fall back to single-cycle advance and let the normal loop
		// terminate or idle-skip.
		return now + 1
	}
	return h
}
