// Package isa defines the SASS-like instruction set executed by the
// simulated SM.
//
// The ISA mirrors the subset of NVIDIA SASS the paper's mechanism
// interacts with: fixed-latency math, variable-latency memory and
// texture operations guarded by count-based scoreboards (the "&wr=sbN"
// / "&req=sbN" annotations of Fig. 9), convergence-barrier control flow
// (BSSY/BSYNC), direct and indirect branches, an asynchronous TraceRay
// operation serviced by the RT core, and an optional subwarp-yield
// scheduling hint.
//
// Programs execute functionally: threads carry 32-bit registers and
// predicate registers, loads compute real addresses, and branches
// resolve from computed predicates, making the simulator
// execution-driven like the proprietary simulator in the paper.
package isa

import "fmt"

// Architectural limits.
const (
	// NumRegs is the number of 32-bit general-purpose registers
	// addressable per thread.
	NumRegs = 64
	// NumPreds is the number of predicate registers per thread. The
	// highest predicate (PT) reads as constant true.
	NumPreds = 8
	// PT is the always-true predicate register index.
	PT = NumPreds - 1
	// NumBarriers is the number of convergence barrier registers per
	// warp (B0..B15).
	NumBarriers = 16
)

// Opcode enumerates the instruction set.
type Opcode uint8

const (
	NOP Opcode = iota

	// Fixed-latency integer/float ALU operations.
	MOVI   // Rd = Imm
	MOV    // Rd = Ra
	S2R    // Rd = special register (SrcA selects which)
	IADD   // Rd = Ra + Rb
	IADDI  // Rd = Ra + Imm
	IMUL   // Rd = Ra * Rb
	IMULI  // Rd = Ra * Imm
	IAND   // Rd = Ra & Rb
	IOR    // Rd = Ra | Rb
	IXOR   // Rd = Ra ^ Rb
	SHL    // Rd = Ra << (Imm & 31)
	SHR    // Rd = Ra >> (Imm & 31)
	ISETP  // Pd = Ra <Cmp> Rb
	ISETPI // Pd = Ra <Cmp> Imm
	FADD   // Rd = Ra +f Rb
	FMUL   // Rd = Ra *f Rb
	FFMA   // Rd = Ra *f Rb +f Rc
	MUFU   // Rd = transcendental(Ra); shared functional unit, longer pipeline

	// Variable-latency operations tracked by count-based scoreboards.
	LDG   // Rd = global[Ra + Imm]           (LSU path)
	STG   // global[Ra + Imm] = Rb           (LSU path, no consumer stall)
	TLD   // Rd = texture[Ra + Imm]          (TEX path)
	TEX   // Rd = texture[Ra + Rb + Imm]     (TEX path)
	TRACE // Rd = RTCore.TraceRay(ray Ra)    (RT core, returns hit record)

	// Control flow.
	BRA   // if pred: PC = Target
	BRX   // PC = Ra (per-thread indirect branch, e.g. shader dispatch)
	BSSY  // register active threads in barrier B, reconvergence at Target
	BSYNC // wait at barrier B until all participants arrive, then converge

	// Scheduling.
	YIELD // subwarp-yield hint (no architectural effect)
	EXIT  // thread terminates

	numOpcodes // sentinel
)

// String returns the mnemonic.
func (o Opcode) String() string {
	if o.Valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Valid reports whether the opcode is a defined instruction.
func (o Opcode) Valid() bool { return opTable[o].name != "" }

// IsLongLatency reports whether the opcode is a variable-latency
// operation that must be guarded by a count-based scoreboard.
func (o Opcode) IsLongLatency() bool { return opTable[o].class&long != 0 }

// IsTexPath reports whether writeback arrives on the texture-unit port
// (one of the two writeback broadcast ports in Fig. 8b).
func (o Opcode) IsTexPath() bool { return opTable[o].class&tex != 0 }

// WritesReg reports whether the instruction writes a destination GPR.
func (o Opcode) WritesReg() bool { return opTable[o].class&wreg != 0 }

// CmpOp is a comparison operator for ISETP/ISETPI.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{CmpEQ: "EQ", CmpNE: "NE", CmpLT: "LT", CmpLE: "LE", CmpGT: "GT", CmpGE: "GE"}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(c))
}

// Eval applies the comparison to signed 32-bit operands.
func (c CmpOp) Eval(a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	default:
		return false
	}
}

// Special register selectors for S2R.
const (
	SRLaneID   = 0 // thread index within the warp
	SRWarpID   = 1 // warp index within the CTA
	SRCTAID    = 2 // CTA index within the grid
	SRThreadID = 3 // global thread id: ctaID*ctaSize + warpID*32 + lane
)

// NoScoreboard marks the absence of a scoreboard annotation.
const NoScoreboard = -1

// Instr is one decoded instruction. The zero value is a NOP with no
// scoreboard annotations (WrScbd/ReqScbd must be NoScoreboard; use
// MakeInstr or the Builder which initialize them).
type Instr struct {
	Op   Opcode
	Dst  uint8 // destination GPR, or predicate index for ISETP*
	SrcA uint8
	SrcB uint8
	SrcC uint8
	Cmp  CmpOp
	Imm  int32

	// Pred guards execution of BRA: the branch is taken by threads
	// whose predicate Pred (negated if PredNeg) is true.
	Pred    uint8
	PredNeg bool

	// Target is the resolved instruction index for BRA and the
	// reconvergence point for BSSY.
	Target int

	// Barrier is the convergence barrier register index for BSSY/BSYNC.
	Barrier uint8

	// WrScbd, when not NoScoreboard, names the count-based scoreboard
	// incremented at issue and decremented at writeback ("&wr=sbN").
	WrScbd int8
	// ReqScbd, when not NoScoreboard, names the scoreboard that must
	// read zero before this instruction can issue ("&req=sbN").
	ReqScbd int8
}

// MakeInstr returns an Instr of the given opcode with scoreboard
// annotations cleared.
func MakeInstr(op Opcode) Instr { return Instr{Op: op, WrScbd: NoScoreboard, ReqScbd: NoScoreboard} }
