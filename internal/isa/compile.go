package isa

// The compile pass analyzes a Program once for the simulator: each
// PC's successor along a fast-forward run, the per-PC run lengths and
// dead writes along it, and a basic-block map (admission's CFG walk).
// The SM executes Program.Code itself; the pass is pure analysis and
// never changes architectural semantics.

// BasicBlock is a maximal straight-line region [Start, End). Leaders
// are the program entry, branch/reconvergence targets, and the
// instructions following control transfers. BRX targets are runtime
// register values and cannot be enumerated statically, so an indirect
// branch may legally enter a block mid-region; the per-PC FFLen
// arrays (not the block map) are what execution consults, and they are
// valid from any entry point.
type BasicBlock struct {
	Start, End int
}

// Compiled is the analyzed form of a Program.
type Compiled struct {
	Blocks []BasicBlock
	// BlockOf maps each PC to its index in Blocks.
	BlockOf []int32

	// Next[pc] is the PC a warp goes to after issuing pc inside a
	// fast-forward run: the Target of a forward unconditional BRA (on
	// PT, not negated, Target > pc), and pc+1 for every other op. Such a
	// BRA cannot diverge and only sets the PC, so it is a run member;
	// every other branch ends a run. A successor always lies later, so a
	// run is a path that never loops.
	Next []int32
	// FFLen[pc] is the number of fast-forward-simple operations on the
	// path from pc along Next: fixed-latency ALU ops (and BSSY, and
	// forward unconditional BRAs) with no scoreboard annotations —
	// operations whose only effects are register/predicate/barrier
	// writes and the PC, so a scheduler that keeps issuing them emits no
	// events and changes no state any other warp can observe. YIELD ends
	// a run because under SI.Enabled && SI.Yield it may switch the
	// active subwarp. FFLen[Next[pc]] is FFLen[pc]-1 wherever FFLen[pc]
	// is positive and Next[pc] lies in the program.
	FFLen []int32
	// FFLenYieldInert is FFLen computed with YIELD counted as simple,
	// valid for configurations where YIELD is architecturally inert
	// (SI disabled, or SI without the yield hint).
	FFLenYieldInert []int32
	// DeadAt[pc], for a simple op at pc that writes a GPR, is the
	// distance along the path from pc (YIELD counted as simple) to the
	// next op that writes the same register, when no op on the way,
	// that one included, reads it: a run that retires pc and that op
	// overwrites pc's write unread. It is -1 otherwise. Every op of a
	// run has the same lanes, and no simple op is guarded.
	DeadAt []int32
}

// ffSimple reports whether the instruction at pc is fast-forward-simple:
// its execution writes only thread-private registers/predicates (or a
// convergence-barrier register, for BSSY) or moves the PC forward
// without divergence (a forward unconditional BRA), cannot stall at
// issue, and emits no events. yieldInert additionally admits YIELD for
// configurations where the hint has no effect.
func ffSimple(in Instr, pc int, yieldInert bool) bool {
	if in.ReqScbd != NoScoreboard {
		return false
	}
	return opTable[in.Op].class&simple != 0 || in.Op == YIELD && yieldInert || hops(in, pc)
}

// hops reports whether the instruction at pc is a forward unconditional
// branch: a run follows it to its target.
func hops(in Instr, pc int) bool {
	return in.Op == BRA && in.Pred == PT && !in.PredNeg && in.Target > pc
}

// readsReg reports whether in reads general register r.
func readsReg(in Instr, r uint8) bool {
	for _, f := range opTable[in.Op].fields {
		if f.kind == kR && f.slot != sDst && *in.reg(f.slot) == r {
			return true
		}
	}
	return false
}

func compile(p *Program) *Compiled {
	n := len(p.Code)
	c := &Compiled{
		BlockOf:         make([]int32, n),
		Next:            make([]int32, n),
		FFLen:           make([]int32, n),
		FFLenYieldInert: make([]int32, n),
		DeadAt:          make([]int32, n),
	}

	// Successors and run lengths in one backward pass: every successor
	// lies later, so its length is known when pc's is computed.
	runLen := func(lens []int32, pc int) int32 {
		if next := c.Next[pc]; int(next) < n {
			return lens[next] + 1
		}
		return 1
	}
	for pc := n - 1; pc >= 0; pc-- {
		in := p.Code[pc]
		c.Next[pc] = int32(pc + 1)
		if hops(in, pc) {
			c.Next[pc] = int32(in.Target)
		}
		if ffSimple(in, pc, false) {
			c.FFLen[pc] = runLen(c.FFLen, pc)
		}
		if ffSimple(in, pc, true) {
			c.FFLenYieldInert[pc] = runLen(c.FFLenYieldInert, pc)
		}
	}

	// Dead writes: from each simple GPR write, walk its run's path to
	// the first op that touches the register.
	for pc, in := range p.Code {
		c.DeadAt[pc] = -1
		if c.FFLenYieldInert[pc] == 0 || !in.Op.WritesReg() {
			continue
		}
		for d, q := int32(1), c.Next[pc]; d < c.FFLenYieldInert[pc]; d, q = d+1, c.Next[q] {
			at := p.Code[q]
			if readsReg(at, in.Dst) {
				break
			}
			if at.Op.WritesReg() && at.Dst == in.Dst {
				c.DeadAt[pc] = d
				break
			}
		}
	}

	// Basic blocks: leaders are the entry, statically known targets
	// (BRA, and BSSY reconvergence points), and fall-throughs after
	// the instructions that end a block.
	leader := make([]bool, n)
	for pc, in := range p.Code {
		d := &opTable[in.Op]
		if d.target && in.Target >= 0 && in.Target < n {
			leader[in.Target] = true
		}
		if d.class&ends != 0 && pc+1 < n {
			leader[pc+1] = true
		}
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		idx := int32(len(c.Blocks))
		c.Blocks = append(c.Blocks, BasicBlock{Start: start, End: end})
		for pc := start; pc < end; pc++ {
			c.BlockOf[pc] = idx
		}
		start = end
	}

	return c
}
