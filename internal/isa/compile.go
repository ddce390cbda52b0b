package isa

// The compile pass analyzes a Program once for the simulator: the
// per-PC fast-forward run lengths and dead writes, and a basic-block
// map (admission's CFG walk). The SM executes Program.Code itself; the
// pass is pure analysis and never changes architectural semantics.

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

	// FFLen[pc] is the number of consecutive fast-forward-simple
	// operations starting at pc: fixed-latency ALU ops (and BSSY) with
	// no scoreboard annotations — operations whose only effects are
	// register/predicate/barrier writes and PC advance, so a scheduler
	// that keeps issuing them emits no events and changes no state any
	// other warp can observe. YIELD ends a run because under
	// SI.Enabled && SI.Yield it may switch the active subwarp.
	FFLen []int32
	// FFLenYieldInert is FFLen computed with YIELD counted as simple,
	// valid for configurations where YIELD is architecturally inert
	// (SI disabled, or SI without the yield hint).
	FFLenYieldInert []int32
	// DeadAt[pc], for a simple op at pc that writes a GPR, is the PC q
	// of the next straight-line simple op (YIELD counted as simple) that
	// writes the same register, when no op in (pc, q] reads it: a run
	// that retires q overwrites pc's write unread. It is -1 otherwise.
	// Every op of a run has the same lanes, and no simple op is guarded.
	DeadAt []int32
}

// ffSimple reports whether an instruction is fast-forward-simple: its
// execution writes only thread-private registers/predicates (or a
// convergence-barrier register, for BSSY), cannot stall at issue, and
// emits no events. yieldInert additionally admits YIELD for
// configurations where the hint has no effect.
func ffSimple(in Instr, yieldInert bool) bool {
	if in.ReqScbd != NoScoreboard {
		return false
	}
	return opTable[in.Op].class&simple != 0 || in.Op == YIELD && yieldInert
}

func compile(p *Program) *Compiled {
	n := len(p.Code)
	c := &Compiled{
		BlockOf:         make([]int32, n),
		FFLen:           make([]int32, n),
		FFLenYieldInert: make([]int32, n),
		DeadAt:          make([]int32, n),
	}

	// Run lengths, computed backwards so each PC extends its successor.
	runs := func(lens []int32, yieldInert bool) {
		run := int32(0)
		for pc := n - 1; pc >= 0; pc-- {
			run++
			if !ffSimple(p.Code[pc], yieldInert) {
				run = 0
			}
			lens[pc] = run
		}
	}
	runs(c.FFLen, false)
	runs(c.FFLenYieldInert, true)

	// Dead writes, backwards: next[r] is the next write of r with no
	// read of r up to it (0, never past pc, when there is none), and
	// stop the next op that is not simple.
	var next [NumRegs]int32
	stop := int32(n)
	for pc := n - 1; pc >= 0; pc-- {
		in := p.Code[pc]
		c.DeadAt[pc] = -1
		if !ffSimple(in, true) {
			stop = int32(pc)
			continue
		}
		if in.Op.WritesReg() {
			if q := next[in.Dst]; q > int32(pc) && q < stop {
				c.DeadAt[pc] = q
			}
			next[in.Dst] = int32(pc)
		}
		for _, f := range opTable[in.Op].fields {
			if f.kind == kR && f.slot != sDst {
				next[*in.reg(f.slot)] = 0
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
