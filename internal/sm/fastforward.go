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
//     (isa.Compiled.FFLen) that ends before the block's own next event,
//     over icache lines that are its fetched line or resident in the
//     block's L0I and filled by the cycle the run reaches them. Every
//     step of the run would re-pick the warp (greedy stickiness over
//     frozen statuses), touch only its registers, predicates or barrier
//     masks, take an L0I hit that emits nothing where it crosses a line,
//     repeat the same failed demotes, and start no select. ffCommit
//     retires the run when it ends — or, on an early exit, the prefix
//     that fits — with the counters, L0I accesses, issue events and
//     time-series samples cycle-by-cycle issue would have produced. The
//     L0I is the block's own, and an excused block makes no other
//     access to it, so its LRU order is lock-step's.
//
// An excused block touches none of l1d, l1i (a crossing's L0I hit never
// reaches it), the memory view or the RT core, so those see the same
// accesses in the same order as lock-step stepping. The visited cycles
// are lock-step's too: after visiting c, c+1 is visited when some block
// issued at c (stepped or inside a run) or has an event by then,
// otherwise the earliest event is next; the cycles jumped over while
// every block is excused and one is in a run are counted as visited
// (SM.visits), which is what a sleeper's overflow debt is measured in.
// Config.Check steps every excused block anyway and panics unless the
// step came back as predicted (stepExcused).

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
		if run := b.ffRun(now, b.event-now-1); run > 0 && !b.selectWaits() {
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

// ffRun returns how many consecutive cycles from now+1, at most limit,
// the block's last-issued warp can retire without any observable
// scheduling event: the length of the fast-forward-simple run at its
// PC, cut where it would cross into an icache line that is not the
// warp's fetched line and is not resident in the L0I, filled by the
// cycle the run's first op on it issues. Such a crossing is a hit of
// the per-cycle fetch probe (status) that emits nothing, and ffCommit
// replays it. Returns 0 when the warp is not simply advancing (exited,
// switched, diverted, or its next instruction is not simple or not
// fetched by then).
func (b *Block) ffRun(now, limit int64) int64 {
	w := b.warps[b.lastIssued]
	if w.exited || w.pendingSelect || w.active.Empty() || w.fetchingLine != math.MaxUint64 {
		return 0
	}
	pc := w.activePC
	if pc >= len(b.ffLen) {
		return 0 // ran off the end: the next stepped fetch reports it
	}
	run := min(int64(b.ffLen[pc]), limit)
	for k := int64(0); k < run; {
		line := b.lineOf(pc + int(k))
		if line != w.fetchedLine {
			if ready, ok := b.l0i.ReadyAt(line * uint64(b.cfg.CacheLineBytes)); !ok || ready > now+1+k {
				return k
			}
		}
		k = int64(int(line+1)*b.cfg.InstrsPerLine() - pc) // the next line's first op
	}
	return run
}

// lineOf is the icache line holding the instruction at pc.
func (b *Block) lineOf(pc int) uint64 {
	return uint64(pc*b.cfg.InstrBytes) / uint64(b.cfg.CacheLineBytes)
}

// ffCommit retires n cycles of the last-issued warp's simple run in
// one call, with exactly the counters cycle-by-cycle execution would
// have accrued: n instructions, one a cycle, and n×|active| threads.
// Each op goes through the same Warp.applySimple a stepped issue uses,
// unless a later op of these n overwrites its register unread
// (isa.Compiled.DeadAt), and, with a recorder attached, emits the issue
// event — the only event a simple op emits — at its own cycle: the
// block's counters.Cycles onward. An op on a new line first replays the
// fetch probe's L0I hit at that cycle (ffRun admitted only resident,
// filled lines, so the fill never runs). The per-op PC writes are
// batched into one setActivePCs at the end: nothing reads the PC inside
// the run except a time series, which gets one sample per cycle taken
// after that op's PC advance, as a step takes it (the live-subwarp count
// reads the active subwarp's PC). The warp stays dirty from its issue at
// the run's base cycle, so the step that follows re-classifies it as
// usual.
func (b *Block) ffCommit(n int64) {
	w := b.warps[b.lastIssued]
	mask := w.active
	pc := w.activePC
	b.counters.IssuedInstrs += n
	b.counters.ActiveThreads += n * int64(mask.Count())
	cycle, next := b.counters.Cycles, pc // next: the first op of a line not yet probed
	for end := pc + int(n); pc < end; pc, cycle = pc+1, cycle+1 {
		if pc == next {
			line := b.lineOf(pc)
			if line != w.fetchedLine {
				b.counters.L0IAccesses++
				b.l0i.Access(line*uint64(b.cfg.CacheLineBytes), cycle, noFill)
				w.fetchedLine = line
			}
			next = int(line+1) * b.cfg.InstrsPerLine()
		}
		op := b.fetch(pc)
		if b.rec != nil {
			b.emit(cycle, w, pc, mask, trace.KindIssue, int(op.Op))
		}
		if q := int(b.deadAt[pc]); q < 0 || q >= end {
			w.applySimple(mask, op)
		}
		if b.rec.Sampling() {
			w.setActivePCs(pc + 1)
			occ, subs, fill := b.sampleState()
			b.rec.Sample(cycle, occ, subs, fill, true)
		}
	}
	w.setActivePCs(pc)
	w.divKnown = false
}

// noFill is the fill of a run's line crossing, which ffRun made a hit.
func noFill(int64) int64 { panic("sm: a fast-forward run crossed into a line its L0I does not hold") }

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
// op, with one L0I access if the op starts a line, and nothing else
// moved — with the same due cycle and next event.
func (b *Block) stepExcused(now int64) bool {
	b.catchUp(now, 0) // cycles the SM did not visit; none when in a run
	due, event, have := b.due, b.event, b.counters
	run, pick, pc := b.runLen > 0, b.lastIssued, 0
	if run {
		w := b.warps[pick]
		pc = w.activePC + 1
		if b.lineOf(w.activePC) != w.fetchedLine {
			b.counters.L0IAccesses++ // the run's line crossing, a hit
		}
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
	ok := b.counters == want && b.due == due && b.event == event && issued == run
	if run {
		ok = ok && b.lastIssued == pick && b.warps[pick].activePC == pc
	} else {
		ok = ok && !b.moved
	}
	if !ok {
		panic(fmt.Sprintf("sm: block %d excused from cycle %d until %d (run %v on warp %d, event %d) but its step moved: "+
			"issued %v on warp %d, moved=%v, due %d, event %d\ncounters %+v\nwant     %+v",
			b.id, now, due, run, pick, event, issued, b.lastIssued, b.moved, b.due, b.event, b.counters, want))
	}
	return issued
}
