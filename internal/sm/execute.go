package sm

import (
	"fmt"
	"math"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/tst"
)

// execute issues the pre-decoded operation at the warp's active PC for
// its active subwarp at cycle now: issue accounting, then the one
// dispatch in the simulator. Operations with scheduling side effects —
// memory, the RT core, control flow, barriers, exit — have their own
// arms; everything else is fast-forward-simple and goes through
// Warp.applySimple, the same lane loops Block.ffCommit retires in bulk.
func (b *Block) execute(w *Warp, now int64) {
	mask := w.active
	if mask.Empty() {
		panic("sm: execute with empty active mask")
	}
	b.counters.IssuedInstrs++
	b.counters.ActiveThreads += int64(mask.Count())
	pc := w.activePC
	op := b.fetch(pc)
	if b.rec != nil {
		b.emit(now, w, pc, mask, trace.KindIssue, int(op.Op))
	}

	switch op.Op {
	case isa.LDG, isa.TLD, isa.TEX:
		b.executeLoad(w, op, now)

	case isa.STG:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			b.sm.mem.Store(uint64(w.regs[l][op.SrcA])+op.UImm, w.regs[l][op.SrcB])
		}
		w.setActivePCs(pc + 1)

	case isa.TRACE:
		b.executeTrace(w, op, now)

	case isa.BRA:
		b.executeBranch(w, op, now)

	case isa.BRX:
		b.executeBrx(w, op, now)

	case isa.BSYNC:
		b.executeBsync(w, op, now)

	case isa.YIELD:
		w.setActivePCs(pc + 1)
		if b.cfg.SI.Enabled && b.cfg.SI.Yield && !w.tab.Mask(tst.Ready).Empty() {
			b.yield(w, now)
		}

	case isa.EXIT:
		if b.rec != nil {
			b.emit(now, w, pc, mask, trace.KindExit, 0)
		}
		w.tab.Exit(mask)
		w.dropActive()
		w.checkExit()
		if w.exited {
			b.exits = true
		} else {
			b.releaseAfterExit(w, now)
		}

	default:
		w.applySimple(mask, op)
		w.setActivePCs(pc + 1)
	}
}

// applySimple applies one fast-forward-simple operation (isa.Compiled's
// FFLen classification) to the lanes in mask: it writes only those
// lanes' registers and predicates or the warp's convergence-barrier
// masks, and leaves PCs to the caller — a single issue advances them by
// one, ffCommit once per window. This switch is the only definition of
// the ALU, compare, and move semantics.
func (w *Warp) applySimple(mask bits.Mask, op *isa.COp) {
	switch op.Op {
	case isa.NOP, isa.YIELD:
		// YIELD arrives here only from a fast-forward run, which admits it
		// only where the hint is architecturally inert (FFLenYieldInert).
	case isa.MOVI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			w.regs[it.Lowest()][op.Dst] = uint32(op.Imm)
		}
	case isa.MOV:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA]
		}
	case isa.S2R:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.special(int(op.SrcA), l)
		}
	case isa.IADD:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] + w.regs[l][op.SrcB]
		}
	case isa.IADDI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] + uint32(op.Imm)
		}
	case isa.IMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] * w.regs[l][op.SrcB]
		}
	case isa.IMULI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] * uint32(op.Imm)
		}
	case isa.IAND:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] & w.regs[l][op.SrcB]
		}
	case isa.IOR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] | w.regs[l][op.SrcB]
		}
	case isa.IXOR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] ^ w.regs[l][op.SrcB]
		}
	case isa.SHL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] << op.Sh
		}
	case isa.SHR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] >> op.Sh
		}
	case isa.ISETP:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.preds[l][op.Dst] = op.Cmp.Eval(int32(w.regs[l][op.SrcA]), int32(w.regs[l][op.SrcB]))
		}
	case isa.ISETPI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.preds[l][op.Dst] = op.Cmp.Eval(int32(w.regs[l][op.SrcA]), op.Imm)
		}
	case isa.FADD:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][op.SrcA])
			x := math.Float32frombits(w.regs[l][op.SrcB])
			w.regs[l][op.Dst] = math.Float32bits(a + x)
		}
	case isa.FMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][op.SrcA])
			x := math.Float32frombits(w.regs[l][op.SrcB])
			w.regs[l][op.Dst] = math.Float32bits(a * x)
		}
	case isa.FFMA:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][op.SrcA])
			x := math.Float32frombits(w.regs[l][op.SrcB])
			c := math.Float32frombits(w.regs[l][op.SrcC])
			w.regs[l][op.Dst] = math.Float32bits(a*x + c)
		}
	case isa.MUFU:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			x := math.Float32frombits(w.regs[l][op.SrcA])
			w.regs[l][op.Dst] = math.Float32bits(float32(1 / math.Sqrt(math.Abs(float64(x))+1)))
		}
	case isa.BSSY:
		w.barriers[op.Barrier] = w.barriers[op.Barrier].Union(mask)
	default:
		panic(fmt.Sprintf("sm: %v is not a simple operation", op.Op))
	}
}

// executeLoad issues a global or texture load: per-thread addresses are
// coalesced into cache lines, each line probes the L1D backed by the
// fixed-latency stub, scoreboards increment per thread, and per-thread
// writeback events are scheduled for when each thread's line arrives.
func (b *Block) executeLoad(w *Warp, op *isa.COp, now int64) {
	mask := w.active
	sbid := int(op.WrScbd)
	w.sb.Inc(mask, sbid)
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindScbdSet, sbid)
	}

	isTex := op.Op.IsTexPath()
	kind := wbLoad
	extra := int64(0)
	if isTex {
		kind = wbTex
		extra = int64(b.cfg.TexExtraLatency)
	}

	lineBytes := uint64(b.cfg.CacheLineBytes)
	// Dedup coalesced lines through the block-owned scratch slice: a warp
	// touches at most 32 lines per load, so a linear scan beats a map and
	// reuses the same backing array every instruction.
	lines := b.scratchLines[:0]
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		addr := uint64(w.regs[l][op.SrcA]) + op.UImm
		if op.Op == isa.TEX {
			addr += uint64(w.regs[l][op.SrcB])
		}
		line := addr / lineBytes * lineBytes
		ready, seen := int64(0), false
		for _, lf := range lines {
			if lf.line == line {
				ready, seen = lf.ready, true
				break
			}
		}
		if !seen {
			b.counters.L1DAccesses++
			b.counters.LinesFetched++
			r, hit := b.sm.l1d.Access(line, now, func(at int64) int64 {
				return at + int64(b.cfg.L1MissLatency)
			})
			if !hit {
				b.counters.L1DMisses++
			}
			if minReady := now + int64(b.cfg.L1DataHitLatency); r < minReady {
				r = minReady
			}
			ready = r
			lines = append(lines, lineFill{line: line, ready: r})
		}
		b.events.push(wbEvent{
			at: ready + extra, warp: w, lane: l,
			reg: op.Dst, sbid: op.WrScbd, kind: kind, addr: addr,
		})
	}
	b.scratchLines = lines

	w.setActivePCs(w.activePC + 1)
	b.afterLongOp(w, now)
}

// lineFill records one coalesced cache line's ready time within a
// single load instruction (scratch-slice replacement for a per-call
// map in executeLoad).
type lineFill struct {
	line  uint64
	ready int64
}

// executeTrace offloads a TraceRay per thread to the RT core; each
// thread's result returns after the core's modeled traversal latency.
func (b *Block) executeTrace(w *Warp, op *isa.COp, now int64) {
	if b.sm.rt == nil {
		panic(fmt.Sprintf("sm: kernel %q uses TRACE but provides no BVH/RayGen", b.sm.prog.Name))
	}
	mask := w.active
	w.sb.Inc(mask, int(op.WrScbd))
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindScbdSet, int(op.WrScbd))
	}
	maxLat := int64(0)
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		rayID := w.regs[l][op.SrcA]
		material, steps, lat := b.sm.rt.Trace(rayID)
		b.counters.RTTraces++
		b.counters.RTTraversalSteps += int64(steps)
		if lat > maxLat {
			maxLat = lat
		}
		// The hit record is material+1, so a miss (MissMaterial) reads 0.
		b.events.push(wbEvent{
			at: now + lat, warp: w, lane: l,
			reg: op.Dst, sbid: op.WrScbd, kind: wbTrace, val: uint32(material + 1),
		})
	}
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindRTStart, int(maxLat))
	}
	w.setActivePCs(w.activePC + 1)
	b.afterLongOp(w, now)
}

// afterLongOp applies the hardware subwarp-yield policy: after the
// active subwarp has issued YieldThreshold long-latency operations
// since activation, it eagerly yields its slot if another subwarp is
// READY (Section III-B).
func (b *Block) afterLongOp(w *Warp, now int64) {
	w.longOpsSinceActivation++
	if !b.cfg.SI.Enabled || !b.cfg.SI.Yield {
		return
	}
	if w.longOpsSinceActivation < b.cfg.SI.YieldThreshold {
		return
	}
	if w.tab.Mask(tst.Ready).Empty() {
		return
	}
	b.yield(w, now)
}

// yield performs subwarp-yield on the active subwarp.
func (b *Block) yield(w *Warp, now int64) {
	b.counters.SubwarpYields++
	if b.rec != nil {
		b.emit(now, w, w.activePC, w.active, trace.KindYield, 0)
	}
	w.tab.Yield(w.active)
	w.dropActive()
}

// subgroup is one PC-aligned set produced by a divergent branch.
type subgroup struct {
	mask bits.Mask
	pc   int
}

// executeBranch implements BRA with predicate-driven divergence.
func (b *Block) executeBranch(w *Warp, op *isa.COp, now int64) {
	target := int(op.Target)
	mask := w.active
	var taken bits.Mask
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		p := true
		if op.Pred != isa.PT {
			p = w.preds[l][op.Pred]
		}
		if op.PredNeg {
			p = !p
		}
		if p {
			taken = taken.Set(l)
		}
	}
	notTaken := mask.Minus(taken)

	switch {
	case notTaken.Empty():
		w.setActivePCs(target)
	case taken.Empty():
		w.setActivePCs(w.activePC + 1)
	default:
		b.scratchGroups = append(b.scratchGroups[:0],
			subgroup{mask: taken, pc: target},
			subgroup{mask: notTaken, pc: w.activePC + 1},
		)
		b.splinter(w, b.scratchGroups, true, now)
	}
}

// executeBrx implements the indirect branch that dispatches shader
// subroutines: active threads group by their per-thread target PC.
func (b *Block) executeBrx(w *Warp, op *isa.COp, now int64) {
	// Group lanes by target in ascending lane order via a linear scan
	// over the groups found so far (a warp produces at most 32 groups,
	// where a map would allocate per call), then insertion-sort by
	// target PC. Targets are distinct across groups, so the ascending-PC
	// order handed to splinter is exactly what the previous map+sort
	// implementation produced — group order feeds electWinner
	// (largest-first tie-breaks, random draws, fallthrough's last-group
	// pick), so it must not change.
	groups := b.scratchGroups[:0]
	for it := w.active; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		t := int(w.regs[l][op.SrcA])
		if t < 0 || t >= len(b.cops) {
			panic(fmt.Sprintf("sm: BRX target %d out of range in %q (warp %d lane %d)",
				t, b.sm.prog.Name, w.ID, l))
		}
		found := false
		for gi := range groups {
			if groups[gi].pc == t {
				groups[gi].mask = groups[gi].mask.Set(l)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, subgroup{mask: bits.LaneMask(l), pc: t})
		}
	}
	b.scratchGroups = groups
	if len(groups) == 1 {
		w.setActivePCs(groups[0].pc)
		return
	}
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i - 1
		for j >= 0 && groups[j].pc > g.pc {
			groups[j+1] = groups[j]
			j--
		}
		groups[j+1] = g
	}
	b.splinter(w, groups, false, now)
}

// splinter applies a divergent control-flow split: per-thread PCs move
// to their group targets, the activation-order policy elects one group
// to stay ACTIVE, and the rest transition to READY.
func (b *Block) splinter(w *Warp, groups []subgroup, isBRA bool, now int64) {
	b.counters.DivergentBranches++
	for _, g := range groups {
		for it := g.mask; !it.Empty(); it = it.DropLowest() {
			w.pcs[it.Lowest()] = g.pc
		}
	}
	win := b.electWinner(groups, isBRA)
	for i, g := range groups {
		if i == win {
			continue
		}
		for it := g.mask; !it.Empty(); it = it.DropLowest() {
			w.tab.SetState(it.Lowest(), tst.Ready)
		}
		if b.rec != nil {
			b.emit(now, w, g.pc, g.mask, trace.KindDivergeReady, len(groups))
		}
	}
	w.activate(groups[win].mask, groups[win].pc)
	if b.rec != nil {
		b.emit(now, w, groups[win].pc, groups[win].mask, trace.KindActivate, len(groups))
	}

	if live := int64(w.tab.LiveSubwarps()); live > b.counters.MaxLiveSubwarps {
		b.counters.MaxLiveSubwarps = live
	}
}

// electWinner picks which subgroup keeps executing per the configured
// activation order. For BRA, groups[0] is the taken path and groups[1]
// the fall-through; for BRX, groups arrive sorted by target PC.
func (b *Block) electWinner(groups []subgroup, isBRA bool) int {
	switch b.cfg.Order {
	case config.OrderFallthroughFirst:
		if isBRA {
			return 1
		}
		return len(groups) - 1
	case config.OrderLargestFirst:
		win := 0
		for i, g := range groups {
			if g.mask.Count() > groups[win].mask.Count() {
				win = i
			}
		}
		return win
	case config.OrderRandom:
		return b.rng.Intn(len(groups))
	default: // OrderTakenFirst
		return 0
	}
}

// switchAfterBlock performs the subwarp switch required when the
// active subwarp vacated its slot at a BSYNC or thread exit. The
// baseline's divergence handling unit does this for free; with SI that
// unit is replaced by the subwarp scheduler (Fig. 6), whose
// subwarp-select pays the fixed switch latency — Section III-B lists
// "an unsuccessful BSYNC" among the events that trigger subwarp-select.
func (b *Block) switchAfterBlock(w *Warp, now int64) {
	if !b.cfg.SI.Enabled {
		if w.selectImmediate() && b.rec != nil {
			b.emit(now, w, w.activePC, w.active, trace.KindActivate, 0)
		}
		return
	}
	if w.tab.Mask(tst.Ready).Empty() {
		return // wakeups will make the warp selectable via the policy
	}
	b.startSelect(w, now)
}

// executeBsync implements the convergence barrier wait: the arriving
// subwarp reconverges with the barrier's participants if everyone else
// is already blocked here or exited; otherwise it blocks and the
// divergence unit switches to a READY subwarp.
func (b *Block) executeBsync(w *Warp, op *isa.COp, now int64) {
	bar := int(op.Barrier)
	parts := w.barriers[bar]
	arrived := w.active
	if !parts.Contains(arrived) {
		panic(fmt.Sprintf("sm: BSYNC B%d by non-participant threads (warp %d pc %d)",
			bar, w.ID, w.activePC))
	}

	success := true
	for it := parts.Minus(arrived); !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		switch w.tab.State(l) {
		case tst.Inactive:
		case tst.Blocked:
			if w.pcs[l] != w.activePC {
				success = false // blocked at a different (nested) barrier
			}
		default:
			success = false
		}
	}

	if success {
		blocked := parts.Intersect(w.tab.Mask(tst.Blocked))
		w.tab.Release(blocked)
		joined := arrived.Union(blocked)
		for it := joined; !it.Empty(); it = it.DropLowest() {
			w.pcs[it.Lowest()] = w.activePC + 1
		}
		w.activate(joined, w.activePC+1)
		w.barriers[bar] = 0
		b.counters.Reconvergences++
		if b.rec != nil {
			b.emit(now, w, w.activePC, joined, trace.KindReconverge, bar)
			b.emit(now, w, w.activePC, joined, trace.KindActivate, bar)
		}
		return
	}

	w.tab.Block(arrived)
	w.dropActive()
	if b.rec != nil {
		b.emit(now, w, w.activePC, arrived, trace.KindBarrierBlock, bar)
	}
	b.switchAfterBlock(w, now)
}

// releaseAfterExit handles threads blocked at a BSYNC whose remaining
// participants have all exited: the barrier is now satisfied but nobody
// will execute the BSYNC again, so the divergence unit releases them.
// If no barrier released, it falls back to selecting a READY subwarp.
func (b *Block) releaseAfterExit(w *Warp, now int64) {
	blocked := w.tab.Mask(tst.Blocked)
	for bar := 0; bar < isa.NumBarriers; bar++ {
		parts := w.barriers[bar]
		waiting := parts.Intersect(blocked)
		if waiting.Empty() {
			continue
		}
		satisfied := true
		pc := -1
		for it := parts; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			switch w.tab.State(l) {
			case tst.Inactive:
			case tst.Blocked:
				if pc == -1 {
					pc = w.pcs[l]
				} else if w.pcs[l] != pc {
					satisfied = false
				}
			default:
				satisfied = false
			}
		}
		if !satisfied || pc < 0 {
			continue
		}
		w.tab.Release(waiting)
		for it := waiting; !it.Empty(); it = it.DropLowest() {
			w.pcs[it.Lowest()] = pc + 1
		}
		w.activate(waiting, pc+1)
		w.barriers[bar] = 0
		b.counters.Reconvergences++
		if b.rec != nil {
			b.emit(now, w, pc+1, waiting, trace.KindReconverge, bar)
			b.emit(now, w, pc+1, waiting, trace.KindActivate, bar)
		}
		return
	}
	b.switchAfterBlock(w, now)
}
