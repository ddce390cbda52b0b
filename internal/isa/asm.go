package isa

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Assemble parses textual assembly into a Program. Each instruction is
// written as its row of the opcode table spells it, with optional
// "&wr=sbN" / "&req=sbN" scoreboard annotations; other lines are labels,
// a ".regs N" register-footprint directive, or blank:
//
//	.regs 40
//	start:
//	    LDG R2, [R1+0] &wr=sb0
//	    IADD R3, R2, R2 &req=sb0   // IADD R3, R2, 5 would be IADDI
//	    ISETP.LT P0, R0, 16
//	    @!P0 BRA start
//	    EXIT
//
// Branch and BSSY targets may be labels or absolute instruction
// indices, and a line may keep the "12:" PC prefix of disassembly, so
// Assemble(name, p.Disassemble()) reproduces p. Comments run from "//"
// or "#" to end of line.
func Assemble(name, src string) (*Program, error) {
	b := NewBuilder(name)
	for num, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := asmLine(b, line); err != nil {
			return nil, fmt.Errorf("isa: line %d: %w (%q)", num+1, err, strings.TrimSpace(raw))
		}
	}
	return b.Build()
}

func stripComment(line string) string {
	line, _, _ = strings.Cut(line, "//")
	line, _, _ = strings.Cut(line, "#")
	return strings.TrimSpace(line)
}

// asmLine assembles one non-empty line.
func asmLine(b *Builder, line string) error {
	// Directives.
	if strings.HasPrefix(line, ".regs") {
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".regs")))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad .regs directive")
		}
		b.SetRegsPerThread(n)
		return nil
	}
	// Leading PC prefix from disassembly ("  12: OP ...").
	if i := strings.Index(line, ":"); i >= 0 {
		head := strings.TrimSpace(line[:i])
		if _, err := strconv.Atoi(head); err == nil {
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				return fmt.Errorf("instruction index without instruction")
			}
		} else if !strings.ContainsAny(head, " \t") && i == len(line)-1 {
			// Label definition.
			b.Label(head)
			return nil
		}
	}

	// Scoreboard annotations.
	line, wr, err := takeAnnot(line, "&wr=sb")
	if err != nil {
		return err
	}
	line, req, err := takeAnnot(line, "&req=sb")
	if err != nil {
		return err
	}

	// Predicate guard "@P0" / "@!P3".
	pred, predNeg := uint8(PT), false
	if g, ok := strings.CutPrefix(line, "@"); ok {
		g, rest, ok := strings.Cut(g, " ")
		if !ok {
			return fmt.Errorf("predicate guard without instruction")
		}
		g, predNeg = strings.CutPrefix(g, "!")
		p, err := parseIdx(g, kP)
		if err != nil {
			return err
		}
		pred, line = uint8(p), strings.TrimSpace(rest)
	}

	mnemonic, rest, _ := strings.Cut(line, " ")
	in, label, err := parseInstr(strings.ToUpper(mnemonic), splitOperands(rest))
	if err != nil {
		return err
	}
	in.WrScbd, in.ReqScbd = int8(wr), int8(req)
	if wr >= 0 && !in.Op.IsLongLatency() {
		return fmt.Errorf("&wr on %s", in.Op)
	}
	if opTable[in.Op].guard {
		in.Pred, in.PredNeg = pred, predNeg
	} else if pred != PT || predNeg {
		return fmt.Errorf("predicate guard only valid on BRA")
	}
	if label != "" {
		b.to(in, label)
	} else {
		b.Raw(in)
	}
	return nil
}

// takeAnnot strips an "&wr=sbN" style annotation, returning its value.
func takeAnnot(line, prefix string) (string, int, error) {
	before, after, ok := strings.Cut(line, prefix)
	if !ok {
		return line, NoScoreboard, nil
	}
	j := len(after) - len(strings.TrimLeft(after, "0123456789"))
	if j == 0 {
		return line, 0, fmt.Errorf("malformed %q annotation", prefix)
	}
	n, _ := strconv.Atoi(after[:j])
	if n >= NumBarriers {
		return line, 0, fmt.Errorf("scoreboard sb%d out of range", n)
	}
	return strings.TrimSpace(before + after[j:]), n, nil
}

func splitOperands(s string) []string {
	var ops []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			ops = append(ops, f)
		}
	}
	return ops
}

// parseIdx parses a register-like operand of kind k: its prefix, then
// decimal digits naming an index under the kind's limit.
func parseIdx(tok string, k kind) (int, error) {
	prefix := kinds[k].prefix
	digits, ok := strings.CutPrefix(tok, prefix)
	if !ok {
		return 0, fmt.Errorf("expected %s register, got %q", prefix, tok)
	}
	n, err := strconv.Atoi(digits)
	if err != nil || strings.Trim(digits, "0123456789") != "" || n >= kinds[k].limit {
		return 0, fmt.Errorf("bad %s register %q", prefix, tok)
	}
	return n, nil
}

// parseImm parses a 32-bit immediate, signed or unsigned: 0xFFFFFFFF
// is -1, and anything outside [-2^31, 2^32-1] is an error rather than
// a silent wrap.
func parseImm(tok string) (int32, error) {
	n, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	if n < -1<<31 || n > 1<<32-1 {
		return 0, fmt.Errorf("immediate %q out of range", tok)
	}
	return int32(n), nil
}

// parseField parses tok as the immediate or register-like field f.
func parseField(in *Instr, f field, tok string) (err error) {
	if f.kind == kI {
		in.Imm, err = parseImm(tok)
		return err
	}
	n, err := parseIdx(tok, f.kind)
	*in.reg(f.slot) = uint8(n)
	return err
}

// parseAddr parses the memory operand tok into its fields o: a base
// register, for "[R+R+I]" a second one, and an offset, which may be
// omitted.
func parseAddr(in *Instr, mnemonic, tok string, o []field) error {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return fmt.Errorf("expected address operand, got %q", tok)
	}
	parts := strings.Split(tok[1:len(tok)-1], "+")
	if len(parts) > 3 {
		return fmt.Errorf("bad address %q", tok)
	}
	regs := 0
	for i, part := range parts {
		part = strings.TrimSpace(part)
		f := o[len(o)-1] // the offset
		switch {
		case i == 0 || i == 1 && strings.HasPrefix(part, "R"):
			f, regs = o[min(regs, len(o)-2)], regs+1
		case i < len(parts)-1:
			return fmt.Errorf("bad address %q", tok)
		}
		if err := parseField(in, f, part); err != nil {
			return err
		}
	}
	if want := len(o) - 1; regs != want {
		if want == 1 {
			return fmt.Errorf("%s takes a single base register", mnemonic)
		}
		return fmt.Errorf("%s wants [Ra+Rb+imm]", mnemonic)
	}
	return nil
}

// parseInstr builds an instruction by walking its table row. A target
// operand that is not an instruction index comes back as a label.
func parseInstr(mnemonic string, toks []string) (in Instr, label string, err error) {
	base, cc, hasCC := strings.Cut(mnemonic, ".")
	ops := mnemonics[base]
	if len(ops) == 0 || opTable[ops[0]].cmp != hasCC {
		return in, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in = MakeInstr(ops[0])
	if hasCC {
		c := slices.Index(cmpNames[:], cc)
		if c < 0 {
			return in, "", fmt.Errorf("unknown comparison %q", cc)
		}
		in.Cmp = CmpOp(c)
	}
	if n := len(opTable[in.Op].operands); len(toks) != n {
		return in, "", fmt.Errorf("%s wants %d operands, got %d", mnemonic, n, len(toks))
	}
	for i, tok := range toks {
		if i == 2 && len(toks) == 3 {
			if in.Op, err = pickThird(mnemonic, ops, tok); err != nil {
				return in, "", err
			}
		}
		switch o := opTable[in.Op].operands[i]; {
		case len(o) > 1:
			err = parseAddr(&in, mnemonic, tok, o)
		case o[0].kind == kL:
			if in.Target, err = strconv.Atoi(tok); err != nil {
				label, err = tok, nil
			}
		default:
			err = parseField(&in, o[0], tok)
		}
		if err != nil {
			return in, "", err
		}
	}
	return in, label, nil
}

// pickThird chooses, among the rows a mnemonic names, the one whose
// third operand is a register if tok is one and an immediate if not.
func pickThird(mnemonic string, ops []Opcode, tok string) (Opcode, error) {
	reg := strings.HasPrefix(tok, "R")
	for _, op := range ops {
		if (opTable[op].operands[2][0].kind == kR) == reg {
			return op, nil
		}
	}
	if reg {
		return 0, fmt.Errorf("%s requires an immediate third operand", mnemonic)
	}
	return 0, fmt.Errorf("%s does not take an immediate", mnemonic)
}
