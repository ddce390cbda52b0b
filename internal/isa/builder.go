package isa

import "fmt"

// Builder assembles a Program with symbolic labels. Methods append one
// instruction each and return the builder for chaining. Labels may be
// referenced before they are defined; Build resolves them and fails on
// dangling references.
//
// The typed emitters are named for their opcode (see the opcode
// constants for what each computes) and take its operands in assembly
// order: Iaddi(rd, ra, imm) is "IADDI Rd, Ra, imm". A variable-latency
// op takes its write scoreboard ("&wr=sbN") last.
type Builder struct {
	name   string
	code   []Instr
	labels map[string]int
	fixups []fixup
	regs   int
	err    error
}

type fixup struct {
	pc    int
	label string
}

// NewBuilder starts a program with the given kernel name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.code) }

// SetRegsPerThread declares the kernel's register footprint.
func (b *Builder) SetRegsPerThread(n int) *Builder {
	b.regs = n
	return b
}

// Label binds name to the next instruction's PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("isa builder %q: "+format, append([]any{b.name}, args...)...)
	}
}

// Raw appends a pre-constructed instruction verbatim.
func (b *Builder) Raw(in Instr) *Builder {
	b.code = append(b.code, in)
	return b
}

// op appends an instruction of op with immediate imm and, in the
// opcode table's order, its other fields regs.
func (b *Builder) op(op Opcode, imm int32, regs ...uint8) *Builder {
	return b.Raw(encode(op, imm, regs...))
}

// to appends in with its target left to label, resolved by Build.
func (b *Builder) to(in Instr, label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	return b.Raw(in)
}

// wr annotates the last instruction with its write scoreboard.
func (b *Builder) wr(sb int) *Builder {
	b.code[len(b.code)-1].WrScbd = int8(sb)
	return b
}

func (b *Builder) Nop() *Builder                              { return b.op(NOP, 0) }
func (b *Builder) Movi(rd uint8, imm int32) *Builder          { return b.op(MOVI, imm, rd) }
func (b *Builder) Mov(rd, ra uint8) *Builder                  { return b.op(MOV, 0, rd, ra) }
func (b *Builder) S2R(rd uint8, sr int) *Builder              { return b.op(S2R, 0, rd, uint8(sr)) }
func (b *Builder) Iadd(rd, ra, rb uint8) *Builder             { return b.op(IADD, 0, rd, ra, rb) }
func (b *Builder) Iaddi(rd, ra uint8, imm int32) *Builder     { return b.op(IADDI, imm, rd, ra) }
func (b *Builder) Imul(rd, ra, rb uint8) *Builder             { return b.op(IMUL, 0, rd, ra, rb) }
func (b *Builder) Imuli(rd, ra uint8, imm int32) *Builder     { return b.op(IMULI, imm, rd, ra) }
func (b *Builder) Iand(rd, ra, rb uint8) *Builder             { return b.op(IAND, 0, rd, ra, rb) }
func (b *Builder) Ior(rd, ra, rb uint8) *Builder              { return b.op(IOR, 0, rd, ra, rb) }
func (b *Builder) Ixor(rd, ra, rb uint8) *Builder             { return b.op(IXOR, 0, rd, ra, rb) }
func (b *Builder) Shl(rd, ra uint8, imm int32) *Builder       { return b.op(SHL, imm, rd, ra) }
func (b *Builder) Shr(rd, ra uint8, imm int32) *Builder       { return b.op(SHR, imm, rd, ra) }
func (b *Builder) Fadd(rd, ra, rb uint8) *Builder             { return b.op(FADD, 0, rd, ra, rb) }
func (b *Builder) Fmul(rd, ra, rb uint8) *Builder             { return b.op(FMUL, 0, rd, ra, rb) }
func (b *Builder) Ffma(rd, ra, rb, rc uint8) *Builder         { return b.op(FFMA, 0, rd, ra, rb, rc) }
func (b *Builder) Mufu(rd, ra uint8) *Builder                 { return b.op(MUFU, 0, rd, ra) }
func (b *Builder) Brx(ra uint8) *Builder                      { return b.op(BRX, 0, ra) }
func (b *Builder) Bsync(barrier uint8) *Builder               { return b.op(BSYNC, 0, barrier) }
func (b *Builder) Yield() *Builder                            { return b.op(YIELD, 0) }
func (b *Builder) Exit() *Builder                             { return b.op(EXIT, 0) }
func (b *Builder) Stg(ra uint8, imm int32, rb uint8) *Builder { return b.op(STG, imm, ra, rb) }

// Isetp and Isetpi take the comparison first, as in "ISETP.LT Pd, ...".
func (b *Builder) Isetp(cmp CmpOp, pd, ra, rb uint8) *Builder {
	return b.op(ISETP, 0, uint8(cmp), pd, ra, rb)
}
func (b *Builder) Isetpi(cmp CmpOp, pd, ra uint8, imm int32) *Builder {
	return b.op(ISETPI, imm, uint8(cmp), pd, ra)
}

func (b *Builder) Ldg(rd, ra uint8, imm int32, sb int) *Builder { return b.op(LDG, imm, rd, ra).wr(sb) }
func (b *Builder) Tld(rd, ra uint8, imm int32, sb int) *Builder { return b.op(TLD, imm, rd, ra).wr(sb) }
func (b *Builder) Trace(rd, ra uint8, sb int) *Builder          { return b.op(TRACE, 0, rd, ra).wr(sb) }
func (b *Builder) Tex(rd, ra, rb uint8, imm int32, sb int) *Builder {
	return b.op(TEX, imm, rd, ra, rb).wr(sb)
}

// Req annotates the most recently emitted instruction with a consumer
// scoreboard requirement ("&req=sbN"), modeling the load-to-use wait.
func (b *Builder) Req(sb int) *Builder {
	if len(b.code) == 0 {
		b.fail("Req with no prior instruction")
		return b
	}
	b.code[len(b.code)-1].ReqScbd = int8(sb)
	return b
}

// Bra emits an unconditional branch to label.
func (b *Builder) Bra(label string) *Builder { return b.BraP(PT, false, label) }

// BraP emits a branch to label taken by threads whose predicate (or its
// negation) is true.
func (b *Builder) BraP(pred uint8, neg bool, label string) *Builder {
	in := encode(BRA, 0)
	in.Pred, in.PredNeg = pred, neg
	return b.to(in, label)
}

// Bssy emits a convergence-barrier setup naming the reconvergence label.
func (b *Builder) Bssy(barrier uint8, label string) *Builder {
	return b.to(encode(BSSY, 0, barrier), label)
}

// Build resolves labels, validates, and returns the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa builder %q: undefined label %q at pc %d", b.name, f.label, f.pc)
		}
		b.code[f.pc].Target = target
	}
	regs := b.regs
	if regs == 0 {
		regs = 32
	}
	p := &Program{Name: b.name, Code: b.code, RegsPerThread: regs}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for tests and generators
// whose programs are statically known to be well-formed.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
