package sm

import (
	"fmt"
	"math"

	"subwarpsim/internal/trace"
)

// Blocks keep their own time. The paper's processing blocks meet only
// at the L1s and the RT core, so SM.advance does not step all of them
// every cycle: each block carries the next cycle at which its step can
// change something (Block.due), the SM steps, in block order, the
// blocks that are due at a visited cycle, and moves to the earliest due
// cycle. A block is excused from the visited cycles before its due
// cycle in exactly two cases, both decided by plan at the end of a step:
//
//   - Quiet: the step did not issue, and the next one would start no
//     subwarp-select (selectWaits) — which a step that changed nothing
//     at all (Block.moved unset) has just shown. No warp is dirty after
//     a step without an issue, so until the block's own next event
//     every step would find the same statuses, fail the same demotes and
//     add one idle cycle. catchUp accounts them in closed form when the
//     block wakes: the idle classification for each cycle, and the
//     step's failed-demote TSTOverflow count for each cycle the SM
//     visited. A quiet step emits no event; catchUp feeds the time series
//     the span as one gap.
//   - In a run, only with the run-length table installed (cfg.Compiled):
//     the step issued and the warp sits in a fast-forward-simple run
//     (isa.Compiled.FFLen) on its fetched icache line that ends before
//     the block's own next event. Every step of the run would re-pick
//     the warp (greedy stickiness over frozen statuses), touch only its
//     registers, predicates or barrier masks, repeat the same failed
//     demotes, and start no select. ffCommit retires the run when it
//     ends — or, on an early exit, the prefix that fits — with the
//     counters, issue events and time-series samples cycle-by-cycle
//     issue would have produced.
//
// An excused block touches none of l1d, l1i, the memory view or the RT
// core, so those see the same accesses in the same order as lock-step
// stepping. The visited cycles are lock-step's too: after visiting c,
// c+1 is visited when some block issued at c (stepped or inside a run)
// or has an event by then, otherwise the earliest event is next; the
// cycles jumped over while every block is excused and one is in a run
// are counted as visited (SM.visits), which is what a sleeper's overflow
// debt is measured in. Config.Check steps every excused block anyway and
// panics unless the step came back as predicted (stepExcused).

// plan decides, at the end of the step at now, when the block is next
// due and whether it is excused until then.
func (b *Block) plan(now int64, issued bool) {
	b.event = b.nextEventTime()
	b.runLen, b.due = 0, now+1
	switch {
	case b.done:
		b.event = math.MaxInt64
	case issued:
		if b.ffLen == nil {
			return
		}
		if run := min(b.ffRun(), b.event-now-1); run > 0 && !b.selectWaits() {
			b.runLen, b.due = run, now+1+run
		}
	case b.event > now && !(b.moved && b.selectWaits()):
		b.due = b.event
	}
}

// selectWaits reports whether the block's next step would start a
// subwarp-select on the statuses this one left.
func (b *Block) selectWaits() bool {
	return b.cfg.SI.Enabled && b.selectCandidate() >= 0
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

// ffCommit retires n cycles of the last-issued warp's simple run in
// one call, with exactly the counters cycle-by-cycle execution would
// have accrued: n issue cycles, n instructions, n×|active| threads.
// Each op goes through the same Warp.applySimple a stepped issue uses
// and, with a recorder attached, emits the issue event — the only event
// a simple op emits — at its own cycle: the block's counters.Cycles
// onward. The per-op PC writes are batched into one setActivePCs at the
// end: nothing reads the PC inside the run except a time series, which
// gets one sample per cycle taken after that op's PC advance, as a step
// takes it (the live-subwarp count reads the active subwarp's PC).
// The warp stays dirty from its issue at the run's base cycle, so the
// step that follows re-classifies it as usual.
func (b *Block) ffCommit(n int64) {
	w := b.warps[b.lastPick]
	mask := w.active
	pc := w.activePC
	b.counters.IssueCycles += n
	b.counters.IssuedInstrs += n
	b.counters.ActiveThreads += n * int64(mask.Count())
	cycle := b.counters.Cycles
	for end := pc + int(n); pc < end; pc, cycle = pc+1, cycle+1 {
		op := b.fetch(pc)
		if b.rec != nil {
			b.emit(cycle, w, pc, mask, trace.KindIssue, int(op.Op))
		}
		w.applySimple(mask, op)
		if b.rec.Sampling() {
			w.setActivePCs(pc + 1)
			occ, subs, fill := b.sampleState()
			b.rec.Sample(cycle, occ, subs, fill, true)
		}
	}
	w.setActivePCs(pc)
	w.divKnown = false
}

// catchUp accounts the cycles before upTo that the block has not been
// stepped at, visited of which the SM visited: the retired part of its
// run, or idle cycles under the classification its state has held since
// the last step, plus the failed demotes every visited cycle repeats.
func (b *Block) catchUp(upTo, visited int64) {
	gap := upTo - b.counters.Cycles
	if gap <= 0 {
		return
	}
	b.counters.TSTOverflow += b.overflow * visited
	if b.runLen > 0 {
		b.ffCommit(gap)
	} else {
		b.addIdle(b.classify(), gap)
		if b.rec.Sampling() {
			occ, subs, fill := b.sampleState()
			b.rec.SampleGap(upTo-gap, upTo, occ, subs, fill)
		}
	}
	b.counters.Cycles = upTo
}

// stepExcused is Config.Check's assertion: it steps a block at a cycle
// it is excused from and panics unless the step came back as plan
// predicted — quiet: no issue, nothing moved, the counters grown by
// catchUp's closed form; in a run: the same warp issued the next simple
// op and nothing else moved — with the same due cycle and next event.
func (b *Block) stepExcused(now int64) bool {
	b.catchUp(now, 0) // cycles the SM did not visit; none when in a run
	due, event, have := b.due, b.event, b.counters
	pick, pc := -1, 0
	if b.runLen > 0 {
		pick = b.lastPick
		w := b.warps[pick]
		pc = w.activePC + 1
		b.counters.IssueCycles++
		b.counters.IssuedInstrs++
		b.counters.ActiveThreads += int64(w.active.Count())
	} else {
		b.addIdle(b.classify(), 1)
	}
	b.counters.TSTOverflow += b.overflow
	b.counters.Cycles = now + 1
	want := b.counters
	b.counters = have

	issued, _ := b.step(now)
	ok := b.counters == want && b.due == due && b.event == event && b.lastPick == pick
	if pick >= 0 {
		ok = ok && b.warps[pick].activePC == pc
	} else {
		ok = ok && !b.moved
	}
	if !ok {
		panic(fmt.Sprintf("sm: block %d excused from cycle %d until %d (run warp %d, event %d) but its step moved: "+
			"issued warp %d, moved=%v, due %d, event %d\ncounters %+v\nwant     %+v",
			b.id, now, due, pick, event, b.lastPick, b.moved, b.due, b.event, b.counters, want))
	}
	return issued
}
