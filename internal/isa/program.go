package isa

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Program is an executable sequence of instructions. Instruction
// indices are the simulator's program counters; the encoded byte
// address of instruction i is i*InstrBytes (for instruction-cache
// modeling).
//
// Programs are shared by pointer (every constructor returns *Program)
// and are immutable once built; the compile cache below relies on
// both.
type Program struct {
	// Name identifies the kernel in reports.
	Name string
	// Code is the instruction stream.
	Code []Instr
	// RegsPerThread is the kernel's declared register footprint, which
	// determines occupancy (Section II-B: the megakernel must reserve
	// the maximum across all shader targets).
	RegsPerThread int

	// The analyzed form, produced at most once per program no matter
	// how many SMs (or repeated runs) execute it.
	compileOnce sync.Once
	compiled    *Compiled
	compiles    atomic.Int32
}

// Compiled returns the program's analyzed form, running the compile
// pass on first use and caching it for every later caller. Safe for
// concurrent use.
func (p *Program) Compiled() *Compiled {
	p.compileOnce.Do(func() {
		p.compiled = compile(p)
		p.compiles.Add(1)
	})
	return p.compiled
}

// CompileCount reports how many times the compile pass has actually
// run for this program: 0 before first use, 1 ever after. Tests use it
// to pin the compiled-once contract.
func (p *Program) CompileCount() int { return int(p.compiles.Load()) }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// At returns the instruction at pc. It panics if pc is out of range,
// which in the simulator indicates control flow escaped the program.
func (p *Program) At(pc int) Instr {
	if pc < 0 || pc >= len(p.Code) {
		panic(fmt.Sprintf("isa: PC %d out of range for %q (%d instrs)", pc, p.Name, len(p.Code)))
	}
	return p.Code[pc]
}

// Validate checks structural well-formedness: opcodes defined, branch
// and reconvergence targets in range, register/predicate/barrier/
// scoreboard indices in range, scoreboard annotations only where they
// make sense, and a terminating EXIT reachable by fallthrough.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	for pc, in := range p.Code {
		if err := p.validateInstr(pc, in); err != nil {
			return err
		}
	}
	if last := p.Code[len(p.Code)-1].Op; last != EXIT && last != BRA && last != BRX {
		return fmt.Errorf("isa: program %q falls off the end (last op %v)", p.Name, last)
	}
	return nil
}

func (p *Program) validateInstr(pc int, in Instr) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("isa: %q pc %d (%s): "+format,
			append([]any{p.Name, pc, in.Op}, args...)...)
	}
	if !in.Op.Valid() {
		return fail("undefined opcode")
	}
	for _, f := range opTable[in.Op].fields {
		v, k := in.get(f), kinds[f.kind]
		switch {
		case f.kind == kL && (v < 0 || v >= len(p.Code)):
			return fail("target %d out of range", v)
		case k.limit > 0 && v >= k.limit:
			return fail("%s%d out of range", k.prefix, v)
		case f.kind == kP && v == PT:
			return fail("cannot write PT")
		}
	}
	// Every operand field is checked, used or not: the SM indexes a
	// register row for each.
	if int(in.SrcA) >= NumRegs || int(in.SrcB) >= NumRegs || int(in.SrcC) >= NumRegs {
		return fail("source register out of range")
	}
	if int(in.Pred) >= NumPreds {
		return fail("predicate P%d out of range", in.Pred)
	}
	if long := in.Op.IsLongLatency(); long != (in.WrScbd != NoScoreboard) {
		if long {
			return fail("long-latency op missing &wr scoreboard")
		}
		return fail("&wr on non-long-latency op")
	}
	if in.WrScbd != NoScoreboard && (in.WrScbd < 0 || int(in.WrScbd) >= NumBarriers) {
		return fail("&wr=sb%d out of range", in.WrScbd)
	}
	if in.ReqScbd != NoScoreboard && (in.ReqScbd < 0 || int(in.ReqScbd) >= NumBarriers) {
		return fail("&req=sb%d out of range", in.ReqScbd)
	}
	return nil
}

// Disassemble renders the whole program, one instruction per line with
// PC prefixes. The output is itself valid assembler input: the .regs
// directive carries the register footprint, which the header comment
// alone would lose, so Assemble(name, p.Disassemble()) reproduces the
// program exactly.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s (%d instrs, %d regs/thread)\n", p.Name, len(p.Code), p.RegsPerThread)
	fmt.Fprintf(&b, ".regs %d\n", p.RegsPerThread)
	for pc, in := range p.Code {
		fmt.Fprintf(&b, "%4d: %s\n", pc, in)
	}
	return b.String()
}

// StaticFootprintBytes returns the encoded code size, used to reason
// about instruction-cache pressure.
func (p *Program) StaticFootprintBytes(instrBytes int) int {
	return len(p.Code) * instrBytes
}

// MaxScoreboard returns the highest scoreboard index referenced, or -1
// if the program uses none.
func (p *Program) MaxScoreboard() int {
	m := -1
	for _, in := range p.Code {
		m = max(m, int(in.WrScbd), int(in.ReqScbd))
	}
	return m
}
