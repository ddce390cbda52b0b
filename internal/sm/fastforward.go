package sm

import (
	"fmt"
	"math"

	"subwarpsim/internal/isa"
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
//     block's L0I and filled by the cycle the run reaches them. A run is
//     a path, not a PC range: it follows isa.Compiled.Next, which hands
//     it through forward unconditional branches to their targets. Every
//     step of the run would re-pick the warp (greedy stickiness over
//     frozen statuses), touch only its registers, predicates or barrier
//     masks, or only its PC for such a branch, take an L0I hit that
//     emits nothing where it crosses a line, repeat the same failed
//     demotes, and start no select. ffCommit retires the run when it
//     ends — or, on an early exit, the prefix that fits — with the
//     counters, L0I accesses, issue events and time-series samples
//     cycle-by-cycle issue would have produced. The L0I is the block's
//     own, and an excused block makes no other access to it, so its LRU
//     order is lock-step's.
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

// Engine is the run loop's own work over one run, summed over blocks.
// Like the counters it is a pure function of (kernel, config): the same
// for every worker count, with Config.Check on or off, and with or
// without a recorder. It measures the simulator, not the modelled GPU,
// so it is in no golden, digest or cache key.
type Engine struct {
	// Steps counts the steps the run loop took at cycles a block was
	// due; Config.Check's extra steps of excused cycles are not steps.
	Steps int64
	// Quiet counts the block-cycles catchUp accounted as idle in closed
	// form (excused quiet, or not visited), and InRuns the block-cycles
	// retired inside fast-forward runs, of which there were Runs.
	Quiet, InRuns, Runs int64
	// Ends counts, for every issued step of the compiled regime, why
	// the run it started ended, after zero or more cycles.
	Ends [numRunEnds]int64
}

// RunEnd is why a fast-forward run ended.
type RunEnd uint8

const (
	// EndTable: the run-length table ended it, or the warp stopped
	// simply advancing (exited, switched, diverted).
	EndTable RunEnd = iota
	// EndLine: the next op lies on an icache line that is not the
	// warp's fetched line and is not resident and filled in time.
	EndLine
	// EndEvent: the block's own next event came first.
	EndEvent
	// EndSelect: the next step would start a subwarp-select.
	EndSelect
	// EndBudget: the run loop stopped first, at a budget kill, the
	// cycle limit or a cancellation.
	EndBudget
	numRunEnds
)

// Add folds o into e.
func (e *Engine) Add(o Engine) {
	e.Steps += o.Steps
	e.Quiet += o.Quiet
	e.InRuns += o.InRuns
	e.Runs += o.Runs
	for i, n := range o.Ends {
		e.Ends[i] += n
	}
}

// String renders the block on one line, each count named.
func (e Engine) String() string {
	return fmt.Sprintf("steps=%d quiet=%d in-runs=%d runs=%d ends: table=%d line=%d event=%d select=%d budget=%d",
		e.Steps, e.Quiet, e.InRuns, e.Runs,
		e.Ends[EndTable], e.Ends[EndLine], e.Ends[EndEvent], e.Ends[EndSelect], e.Ends[EndBudget])
}

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
		run, end := b.ffRun(now, b.event-now-1)
		if run > 0 && b.selectWaits() {
			run, end = 0, EndSelect
		}
		b.eng.Ends[end]++
		b.runEnd = end
		if run > 0 {
			b.eng.Runs++
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

// ffRun returns how many cycles from now+1, at most limit, the block's
// last-issued warp can retire without any observable scheduling event,
// and why the run ends there: the length of the fast-forward-simple run
// at its PC, walked along isa.Compiled.Next and cut where it would
// cross into an icache line that is not the line fetched so far along
// the walk and is not resident in the L0I, filled by the cycle the
// run's first op on it issues. Such a crossing, after the previous op
// on the path or a branch into the line, is a hit of the per-cycle
// fetch probe (status) that emits nothing, and ffCommit replays it.
// Returns 0 when the warp is not simply advancing (exited, switched,
// diverted, or its next instruction is not simple or not fetched by
// then).
func (b *Block) ffRun(now, limit int64) (int64, RunEnd) {
	w := b.warps[b.lastIssued]
	if w.exited || w.pendingSelect || w.active.Empty() || w.fetchingLine != math.MaxUint64 {
		return 0, EndTable
	}
	pc := w.activePC
	if pc >= len(b.ffLen) {
		return 0, EndTable // ran off the end: the next stepped fetch reports it
	}
	run, end := int64(b.ffLen[pc]), EndTable
	if limit < run {
		run, end = limit, EndEvent
	}
	fetched := w.fetchedLine
	for k := int64(0); k < run; k, pc = k+1, int(b.next[pc]) {
		if line := b.lineOf(pc); line != fetched {
			if ready, ok := b.l0i.ReadyAt(line * uint64(b.cfg.CacheLineBytes)); !ok || ready > now+1+k {
				return k, EndLine
			}
			fetched = line
		}
	}
	return run, end
}

// lineOf is the icache line holding the instruction at pc.
func (b *Block) lineOf(pc int) uint64 {
	return uint64(pc*b.cfg.InstrBytes) / uint64(b.cfg.CacheLineBytes)
}

// ffCommit retires n cycles of the last-issued warp's simple run in
// one call, with exactly the counters cycle-by-cycle execution would
// have accrued: n instructions, one a cycle, and n×|active| threads,
// the ops on the path from the warp's PC along isa.Compiled.Next. Each
// op goes through the same Warp.applySimple a stepped issue uses, unless
// a later op of these n overwrites its register unread (DeadAt, a
// distance along the path) or it is a forward unconditional BRA, whose
// only effect is the PC; with a recorder attached, each emits the issue
// event — the only event a simple op emits — at its own cycle: the
// block's counters.Cycles onward. An op on a line other than the warp's
// fetched one first replays the fetch probe's L0I hit at that cycle
// (ffRun admitted only resident, filled lines, so the fill never runs).
// The per-op PC writes are batched into one setActivePCs at the end:
// nothing reads the PC inside the run except a time series, which gets
// one sample per cycle taken after that op's PC moves to its successor,
// as a step takes it (the live-subwarp count reads the active subwarp's
// PC). The warp stays dirty from its issue at
// the run's base cycle, so the step that follows re-classifies it as
// usual.
func (b *Block) ffCommit(n int64) {
	w := b.warps[b.lastIssued]
	mask := w.active
	pc := w.activePC
	b.counters.IssuedInstrs += n
	b.counters.ActiveThreads += n * int64(mask.Count())
	cycle := b.counters.Cycles
	for i := int64(0); i < n; i, cycle = i+1, cycle+1 {
		if line := b.lineOf(pc); line != w.fetchedLine {
			b.counters.L0IAccesses++
			b.l0i.Access(line*uint64(b.cfg.CacheLineBytes), cycle, noFill)
			w.fetchedLine = line
		}
		op := b.fetch(pc)
		if b.rec != nil {
			b.emit(cycle, w, pc, mask, trace.KindIssue, int(op.Op))
		}
		if d := int64(b.deadAt[pc]); op.Op != isa.BRA && (d < 0 || i+d >= n) {
			w.applySimple(mask, op)
		}
		pc = int(b.next[pc])
		if b.rec.Sampling() {
			w.setActivePCs(pc)
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
		b.eng.InRuns += gap
		b.ffCommit(gap)
	} else {
		b.eng.Quiet += gap
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
// op and moved to its successor along the path, with one L0I access if
// the op is off the warp's fetched line, and nothing else moved — with
// the same due cycle and next event. The engine counts the cycle as
// excused, not as a step.
func (b *Block) stepExcused(now int64) bool {
	b.catchUp(now, 0) // cycles the SM did not visit; none when in a run
	due, event, have := b.due, b.event, b.counters
	run, pick, pc := b.runLen > 0, b.lastIssued, 0
	if run {
		w := b.warps[pick]
		pc = int(b.next[w.activePC])
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

	eng, end := b.eng, b.runEnd
	issued, _ := b.step(now)
	b.eng, b.runEnd = eng, end
	if run {
		b.eng.InRuns++
	} else {
		b.eng.Quiet++
	}
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
