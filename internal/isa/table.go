package isa

import (
	"strconv"
	"strings"
)

// The opcode table is the ISA's one definition of its syntax: each row
// gives an opcode's name, its assembly syntax and its class, and an
// undefined opcode's row is empty. The assembler, the disassembler,
// Program.Validate, the Builder and admission's register check all walk
// it.
//
// A syntax is written the way the instruction reads. "@P" in front
// takes a predicate guard, ".cc" after the mnemonic a comparison, and
// each operand is one or more fields of a kind (see kinds):
//
//	R  general register     P  predicate register
//	SR special register     B  convergence barrier
//	I  immediate            L  label or instruction index
//
// "[R+I]" and "[R+R+I]" are memory addresses. The destination of a
// register-writing op is its first operand (Dst); the other register
// fields fill SrcA, SrcB and SrcC in order.
var opTable = [1 << 8]opDef{
	NOP:    {name: "NOP", syntax: "NOP", class: simple},
	MOVI:   {name: "MOVI", syntax: "MOVI R, I", class: wreg | simple},
	MOV:    {name: "MOV", syntax: "MOV R, R", class: wreg | simple},
	S2R:    {name: "S2R", syntax: "S2R R, SR", class: wreg | simple},
	IADD:   {name: "IADD", syntax: "IADD R, R, R", class: wreg | simple},
	IADDI:  {name: "IADDI", syntax: "IADDI R, R, I", class: wreg | simple},
	IMUL:   {name: "IMUL", syntax: "IMUL R, R, R", class: wreg | simple},
	IMULI:  {name: "IMULI", syntax: "IMULI R, R, I", class: wreg | simple},
	IAND:   {name: "IAND", syntax: "IAND R, R, R", class: wreg | simple},
	IOR:    {name: "IOR", syntax: "IOR R, R, R", class: wreg | simple},
	IXOR:   {name: "IXOR", syntax: "IXOR R, R, R", class: wreg | simple},
	SHL:    {name: "SHL", syntax: "SHL R, R, I", class: wreg | simple},
	SHR:    {name: "SHR", syntax: "SHR R, R, I", class: wreg | simple},
	ISETP:  {name: "ISETP", syntax: "ISETP.cc P, R, R", class: simple},
	ISETPI: {name: "ISETPI", syntax: "ISETP.cc P, R, I", class: simple},
	FADD:   {name: "FADD", syntax: "FADD R, R, R", class: wreg | simple},
	FMUL:   {name: "FMUL", syntax: "FMUL R, R, R", class: wreg | simple},
	FFMA:   {name: "FFMA", syntax: "FFMA R, R, R, R", class: wreg | simple},
	MUFU:   {name: "MUFU", syntax: "MUFU R, R", class: wreg | simple},
	LDG:    {name: "LDG", syntax: "LDG R, [R+I]", class: wreg | long},
	STG:    {name: "STG", syntax: "STG [R+I], R"},
	TLD:    {name: "TLD", syntax: "TLD R, [R+I]", class: wreg | long | tex},
	TEX:    {name: "TEX", syntax: "TEX R, [R+R+I]", class: wreg | long | tex},
	TRACE:  {name: "TRACE", syntax: "TRACE R, R", class: wreg | long},
	BRA:    {name: "BRA", syntax: "@P BRA L", class: ends},
	BRX:    {name: "BRX", syntax: "BRX R", class: ends},
	BSSY:   {name: "BSSY", syntax: "BSSY B, L", class: simple},
	BSYNC:  {name: "BSYNC", syntax: "BSYNC B", class: ends},
	YIELD:  {name: "YIELD", syntax: "YIELD"},
	EXIT:   {name: "EXIT", syntax: "EXIT", class: ends},
}

// class flags an opcode's properties.
type class uint8

const (
	wreg   class = 1 << iota // writes a destination GPR
	long                     // variable latency: needs a &wr scoreboard
	tex                      // writes back on the texture-unit port
	simple                   // fast-forward-simple (see ffSimple)
	ends                     // ends a basic block
)

type opDef struct {
	name   string
	syntax string
	class  class

	// Parsed from syntax.
	mnem     string    // mnemonic without its ".cc" suffix
	cmp      bool      // takes a ".cc" comparison suffix
	guard    bool      // takes an "@P" predicate guard
	target   bool      // has an L field
	operands [][]field // one entry per operand; more than one field is an address
	fields   []field   // every field in syntax order, the comparison first
	text     []string  // the literal text before each field
	tail     string    // and after the last
}

// kind is an operand field's syntax class.
type kind uint8

const (
	kR kind = iota
	kP
	kSR
	kB
	kI
	kL
	kCC // the ".cc" comparison, a field of the mnemonic
)

var kindOf = map[string]kind{"R": kR, "P": kP, "SR": kSR, "B": kB, "I": kI, "L": kL}

// kinds gives each operand kind its text prefix, its Instr field (R and
// SR take the next register slot; I is Imm, L is Target) and the bound
// Validate holds it under.
var kinds = [kCC + 1]struct {
	prefix string
	slot   slot
	limit  int
}{
	kR:  {"R", sReg, NumRegs},
	kP:  {"P", sDst, NumPreds},
	kSR: {"SR", sReg, SRThreadID + 1},
	kB:  {"B", sBarrier, NumBarriers},
	kCC: {"", sCmp, 0},
}

// slot names one of Instr's byte-sized fields.
type slot uint8

const (
	sDst slot = iota
	sSrcA
	sSrcB
	sSrcC
	sBarrier
	sCmp
	sReg // in kinds: the next of sDst..sSrcC
)

type field struct {
	kind kind
	slot slot
}

// mnemonics maps a mnemonic to the rows it names, aliases last.
var mnemonics = map[string][]Opcode{}

func init() {
	for op := NOP; op < numOpcodes; op++ {
		d := &opTable[op]
		syn, guard := strings.CutPrefix(d.syntax, "@P ")
		mnem, shape, _ := strings.Cut(syn, " ")
		d.mnem, _, d.cmp = strings.Cut(mnem, ".")
		d.guard = guard
		if d.cmp {
			d.fields, d.text = append(d.fields, field{kCC, sCmp}), append(d.text, ".")
		}
		next, sep := sSrcA, " "
		if d.class&wreg != 0 {
			next = sDst
		}
		for _, tok := range splitOperands(shape) {
			var o []field
			addr := strings.HasPrefix(tok, "[")
			if addr {
				sep += "["
			}
			for _, name := range strings.Split(strings.Trim(tok, "[]"), "+") {
				k := kindOf[name]
				f := field{k, kinds[k].slot}
				d.target = d.target || k == kL
				if f.slot == sReg {
					f.slot, next = next, next+1
				}
				o = append(o, f)
				d.text, sep = append(d.text, sep+kinds[k].prefix), "+"
			}
			sep = ", "
			if addr {
				sep = "], "
			}
			d.operands = append(d.operands, o)
			d.fields = append(d.fields, o...)
		}
		d.tail = strings.TrimRight(sep, ", ")
		mnemonics[d.mnem] = append(mnemonics[d.mnem], op)
	}
	// Aliases: "IADD R1, R2, 5" is IADDI; the third operand picks.
	mnemonics["IADD"] = append(mnemonics["IADD"], IADDI)
	mnemonics["IMUL"] = append(mnemonics["IMUL"], IMULI)
}

func (in *Instr) get(f field) int {
	switch f.kind {
	case kI:
		return int(in.Imm)
	case kL:
		return in.Target
	}
	return int(*in.reg(f.slot))
}

// reg returns the byte-sized field slot s names.
func (in *Instr) reg(s slot) *uint8 {
	return [...]*uint8{&in.Dst, &in.SrcA, &in.SrcB, &in.SrcC, &in.Barrier, (*uint8)(&in.Cmp)}[s]
}

// encode returns an instruction of op with immediate imm whose other
// fields, in the table's order, hold regs. A target is left for the
// label fixup.
func encode(op Opcode, imm int32, regs ...uint8) Instr {
	in := MakeInstr(op)
	in.Imm = imm
	for _, f := range opTable[op].fields {
		if f.kind != kI && f.kind != kL {
			*in.reg(f.slot) = regs[0]
			regs = regs[1:]
		}
	}
	return in
}

// AppendGPRs appends the general registers the instruction names, in
// operand order, to dst. Fields the opcode does not use are not
// operands, and neither are special registers or predicates.
func (in Instr) AppendGPRs(dst []uint8) []uint8 {
	for _, f := range opTable[in.Op].fields {
		if f.kind == kR {
			dst = append(dst, uint8(in.get(f)))
		}
	}
	return dst
}

// String disassembles the instruction. The text is assembler input.
func (in Instr) String() string {
	d := &opTable[in.Op]
	b := make([]byte, 0, 32)
	if d.guard && (in.Pred != PT || in.PredNeg) {
		b = append(b, '@')
		if in.PredNeg {
			b = append(b, '!')
		}
		b = append(strconv.AppendUint(append(b, 'P'), uint64(in.Pred), 10), ' ')
	}
	if d.name == "" {
		b = append(b, in.Op.String()...)
	}
	b = append(b, d.mnem...)
	for i, f := range d.fields {
		b = append(b, d.text[i]...)
		if f.kind == kCC {
			b = append(b, in.Cmp.String()...)
		} else {
			b = strconv.AppendInt(b, int64(in.get(f)), 10)
		}
	}
	b = append(b, d.tail...)
	if in.WrScbd != NoScoreboard {
		b = strconv.AppendInt(append(b, " &wr=sb"...), int64(in.WrScbd), 10)
	}
	if in.ReqScbd != NoScoreboard {
		b = strconv.AppendInt(append(b, " &req=sb"...), int64(in.ReqScbd), 10)
	}
	return string(b)
}
