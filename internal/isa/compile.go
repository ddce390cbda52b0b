package isa

// The compile pass lowers a Program once into the pre-decoded operation
// stream the simulator executes — the SM has no other instruction
// format: operands are widened to the exact types the execution arms
// consume (zero-extended address immediates, masked shift amounts), so
// the per-issue path does no decoding or conversion. Alongside the
// stream it records the per-PC fast-forward run lengths and a
// basic-block map (admission's CFG walk). The pass is pure analysis: it
// never changes architectural semantics.

// COp is one pre-decoded operation. It carries everything the
// execution arms read, already widened/masked so the per-cycle path
// does no conversions; Op is what the SM dispatches on.
type COp struct {
	Op Opcode

	Dst     uint8
	SrcA    uint8
	SrcB    uint8
	SrcC    uint8
	Pred    uint8
	PredNeg bool
	Barrier uint8
	Cmp     CmpOp

	WrScbd  int8
	ReqScbd int8

	Imm    int32
	Target int32
	UImm   uint64 // uint64(uint32(Imm)): zero-extended address offset
	Sh     uint32 // uint32(Imm) & 31: pre-masked shift amount
}

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

// Compiled is the pre-decoded form of a Program.
type Compiled struct {
	Ops    []COp
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
	switch in.Op {
	case NOP, MOVI, MOV, S2R, IADD, IADDI, IMUL, IMULI, IAND, IOR, IXOR,
		SHL, SHR, ISETP, ISETPI, FADD, FMUL, FFMA, MUFU, BSSY:
		return true
	case YIELD:
		return yieldInert
	}
	return false
}

func compile(p *Program) *Compiled {
	n := len(p.Code)
	c := &Compiled{
		Ops:             make([]COp, n),
		BlockOf:         make([]int32, n),
		FFLen:           make([]int32, n),
		FFLenYieldInert: make([]int32, n),
	}

	for pc, in := range p.Code {
		c.Ops[pc] = COp{
			Op:      in.Op,
			Dst:     in.Dst,
			SrcA:    in.SrcA,
			SrcB:    in.SrcB,
			SrcC:    in.SrcC,
			Pred:    in.Pred,
			PredNeg: in.PredNeg,
			Barrier: in.Barrier,
			Cmp:     in.Cmp,
			WrScbd:  in.WrScbd,
			ReqScbd: in.ReqScbd,
			Imm:     in.Imm,
			Target:  int32(in.Target),
			UImm:    uint64(uint32(in.Imm)),
			Sh:      uint32(in.Imm) & 31,
		}
	}

	// Run lengths, computed backwards so each PC extends its successor.
	for pc := n - 1; pc >= 0; pc-- {
		if ffSimple(p.Code[pc], false) {
			c.FFLen[pc] = 1
			if pc+1 < n {
				c.FFLen[pc] += c.FFLen[pc+1]
			}
		}
		if ffSimple(p.Code[pc], true) {
			c.FFLenYieldInert[pc] = 1
			if pc+1 < n {
				c.FFLenYieldInert[pc] += c.FFLenYieldInert[pc+1]
			}
		}
	}

	// Basic blocks: leaders are the entry, statically known targets
	// (BRA, and BSSY reconvergence points), and fall-throughs after
	// control transfers.
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for pc, in := range p.Code {
		switch in.Op {
		case BRA, BSSY:
			if in.Target >= 0 && in.Target < n {
				leader[in.Target] = true
			}
			if in.Op == BRA && pc+1 < n {
				leader[pc+1] = true
			}
		case BRX, BSYNC, EXIT:
			if pc+1 < n {
				leader[pc+1] = true
			}
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
