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

// execute issues the instruction at the warp's active PC for
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
		off := uint64(uint32(op.Imm)) // zero-extended: a 32-bit base plus the offset
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			b.sm.mem.Store(uint64(w.regs[op.SrcA][l])+off, w.regs[op.SrcB][l])
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
// FFLen classification) other than a forward unconditional BRA, whose
// only effect is the PC, to the lanes in mask: it writes only those
// lanes' registers and predicates or the warp's convergence-barrier
// masks, and leaves PCs to the caller — a single issue advances them by
// one, ffCommit once per window. This switch is the only definition of
// the ALU, compare, and move semantics. Loops visit only mask's lanes:
// an inactive lane's arbitrary word could hit a slow float path.
func (w *Warp) applySimple(mask bits.Mask, op *isa.Instr) {
	switch op.Op {
	case isa.NOP, isa.YIELD:
		// YIELD arrives here only from a fast-forward run, which admits it
		// only where the hint is architecturally inert (FFLenYieldInert).
		return
	case isa.BSSY:
		w.barriers[op.Barrier] = w.barriers[op.Barrier].Union(mask)
		return
	}
	// Program.Validate bounds every source and the Dst of each op below.
	d, a, x, c := &w.regs[op.Dst], &w.regs[op.SrcA], &w.regs[op.SrcB], &w.regs[op.SrcC]
	switch op.Op {
	case isa.MOVI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			d[it.Lowest()] = uint32(op.Imm)
		}
	case isa.MOV:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l]
		}
	case isa.S2R:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = w.special(int(op.SrcA), l)
		}
	case isa.IADD:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] + x[l]
		}
	case isa.IADDI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] + uint32(op.Imm)
		}
	case isa.IMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] * x[l]
		}
	case isa.IMULI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] * uint32(op.Imm)
		}
	case isa.IAND:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] & x[l]
		}
	case isa.IOR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] | x[l]
		}
	case isa.IXOR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] ^ x[l]
		}
	case isa.SHL:
		sh := uint32(op.Imm) & 31
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] << sh
		}
	case isa.SHR:
		sh := uint32(op.Imm) & 31
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = a[l] >> sh
		}
	case isa.ISETP, isa.ISETPI:
		var set bits.Mask
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			rhs := op.Imm
			if op.Op == isa.ISETP {
				rhs = int32(x[l])
			}
			if op.Cmp.Eval(int32(a[l]), rhs) {
				set = set.Set(l)
			}
		}
		w.preds[op.Dst] = w.preds[op.Dst].Minus(mask).Union(set)
	case isa.FADD:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = math.Float32bits(f32(a[l]) + f32(x[l]))
		}
	case isa.FMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = math.Float32bits(fmul(a[l], x[l]))
		}
	case isa.FFMA:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = math.Float32bits(fmul(a[l], x[l]) + f32(c[l]))
		}
	case isa.MUFU:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			d[l] = math.Float32bits(float32(1 / math.Sqrt(math.Abs(float64(f32(a[l])))+1)))
		}
	default:
		panic(fmt.Sprintf("sm: %v is not a simple operation", op.Op))
	}
}

// f32 reads a register word as a binary32 value.
func f32(u uint32) float32 { return math.Float32frombits(u) }

// fmul is the binary32 product, rounded to nearest even: binary64 holds
// it exactly (48 significant bits at most), so the one rounding back is
// the IEEE result bit for bit, and the host never takes its subnormal
// slow path. The explicit conversion keeps FFMA's add unfused.
func fmul(a, x uint32) float32 { return float32(float64(f32(a)) * float64(f32(x))) }

// executeLoad issues a global or texture load: per-thread addresses are
// coalesced into cache lines, each line probes the L1D backed by the
// fixed-latency stub, scoreboards increment per thread, and one
// writeback event per line carries its lanes back when the line
// arrives.
func (b *Block) executeLoad(w *Warp, op *isa.Instr, now int64) {
	mask := w.active
	sbid := int(op.WrScbd)
	w.sb.Inc(mask, sbid)
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindScbdSet, sbid)
	}

	extra := int64(0)
	if op.Op.IsTexPath() {
		extra = int64(b.cfg.TexExtraLatency)
	}

	// Group lanes by window in the block-owned scratch slice, a linear
	// scan over at most 32 entries. A window is the line, or a 256-byte
	// part of a longer one so that a lane's offset fits a byte; the
	// parts of a line share its probe.
	lineBytes := uint64(b.cfg.CacheLineBytes)
	winBytes := min(lineBytes, 256)
	evs := b.scratchLoads[:0]
	off := uint64(uint32(op.Imm)) // zero-extended, as STG's
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		addr := uint64(w.regs[op.SrcA][l]) + off
		if op.Op == isa.TEX {
			addr += uint64(w.regs[op.SrcB][l])
		}
		win, line := addr&^(winBytes-1), addr&^(lineBytes-1)
		i, ready := -1, int64(-1)
		for j := range evs {
			if evs[j].base == win {
				i = j
				break
			}
			if evs[j].base&^(lineBytes-1) == line {
				ready = evs[j].at
			}
		}
		if i < 0 {
			if ready < 0 {
				ready = b.probeLine(line, now) + extra
			}
			i = len(evs)
			evs = append(evs, wbEvent{at: ready, base: win, warp: w.rid, reg: op.Dst, sbid: op.WrScbd})
		}
		evs[i].mask = evs[i].mask.Set(l)
		evs[i].off[l] = uint8(addr - win)
	}
	for i := range evs {
		b.events.push(evs[i])
	}
	b.scratchLoads = evs

	w.setActivePCs(w.activePC + 1)
	b.afterLongOp(w, now)
}

// probeLine looks one coalesced line up in the L1D and returns the
// cycle its data is ready.
func (b *Block) probeLine(line uint64, now int64) int64 {
	b.counters.L1DAccesses++
	r, hit := b.sm.l1d.Access(line, now, func(at int64) int64 {
		return at + int64(b.cfg.L1MissLatency)
	})
	if !hit {
		b.counters.L1DMisses++
	}
	return max(r, now+int64(b.cfg.L1DataHitLatency))
}

// executeTrace offloads a TraceRay per thread to the RT core; each
// thread's result returns after the core's modeled traversal latency.
func (b *Block) executeTrace(w *Warp, op *isa.Instr, now int64) {
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
		rayID := w.regs[op.SrcA][l]
		material, steps, lat := b.sm.rt.Trace(rayID)
		b.counters.RTTraces++
		b.counters.RTTraversalSteps += int64(steps)
		if lat > maxLat {
			maxLat = lat
		}
		// The hit record is material+1, so a miss (MissMaterial) reads 0.
		b.events.push(wbEvent{
			at: now + lat, base: uint64(material + 1), warp: w.rid, mask: bits.LaneMask(l),
			reg: op.Dst, sbid: op.WrScbd, ray: true,
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
func (b *Block) executeBranch(w *Warp, op *isa.Instr, now int64) {
	target := op.Target
	mask := w.active
	taken := mask.Intersect(w.preds[op.Pred])
	if op.PredNeg {
		taken = mask.Minus(taken)
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
func (b *Block) executeBrx(w *Warp, op *isa.Instr, now int64) {
	// Group lanes by target in ascending lane order via a linear scan
	// over the groups found so far (at most 32; a map would allocate),
	// then insertion-sort by target PC. Group order feeds electWinner
	// (largest-first tie-breaks, random draws, fallthrough's last-group
	// pick), so it must not change.
	groups := b.scratchGroups[:0]
	for it := w.active; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		t := int(w.regs[op.SrcA][l])
		if t < 0 || t >= len(b.code) {
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
		return b.random().Intn(len(groups))
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
func (b *Block) executeBsync(w *Warp, op *isa.Instr, now int64) {
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
		b.reconverge(w, bar, arrived, w.activePC, now)
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
		if satisfied && pc >= 0 {
			b.reconverge(w, bar, 0, pc, now)
			return
		}
	}
	b.switchAfterBlock(w, now)
}

// reconverge satisfies barrier bar at the BSYNC at pc: the lanes blocked
// there are released, and they and the arriving lanes become the active
// subwarp at pc+1.
func (b *Block) reconverge(w *Warp, bar int, arrived bits.Mask, pc int, now int64) {
	blocked := w.barriers[bar].Intersect(w.tab.Mask(tst.Blocked))
	w.tab.Release(blocked)
	joined := arrived.Union(blocked)
	for it := joined; !it.Empty(); it = it.DropLowest() {
		w.pcs[it.Lowest()] = pc + 1
	}
	w.activate(joined, pc+1)
	w.barriers[bar] = 0
	b.counters.Reconvergences++
	if b.rec != nil {
		b.emit(now, w, pc+1, joined, trace.KindReconverge, bar)
		b.emit(now, w, pc+1, joined, trace.KindActivate, bar)
	}
}
