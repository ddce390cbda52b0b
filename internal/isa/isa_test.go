package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeClassification(t *testing.T) {
	long := []Opcode{LDG, TLD, TEX, TRACE}
	for _, op := range long {
		if !op.IsLongLatency() {
			t.Errorf("%v should be long latency", op)
		}
	}
	short := []Opcode{NOP, MOVI, IADD, FMUL, MUFU, BRA, BSSY, BSYNC, EXIT, STG, YIELD}
	for _, op := range short {
		if op.IsLongLatency() {
			t.Errorf("%v should not be long latency", op)
		}
	}
	if !TLD.IsTexPath() || !TEX.IsTexPath() {
		t.Error("TLD/TEX must be on the texture writeback path")
	}
	if LDG.IsTexPath() || TRACE.IsTexPath() {
		t.Error("LDG/TRACE must be on the LSU writeback path")
	}
	if !LDG.WritesReg() || !TRACE.WritesReg() || !MOVI.WritesReg() {
		t.Error("register-writing ops misclassified")
	}
	if STG.WritesReg() || BRA.WritesReg() || EXIT.WritesReg() {
		t.Error("non-writing ops misclassified")
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if !op.Valid() {
			t.Errorf("opcode %d has no name", op)
		}
		if strings.HasPrefix(op.String(), "Opcode(") {
			t.Errorf("opcode %d String fallback", op)
		}
	}
	if Opcode(200).Valid() {
		t.Error("opcode 200 should be invalid")
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		cmp  CmpOp
		a, b int32
		want bool
	}{
		{CmpEQ, 3, 3, true},
		{CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true},
		{CmpLT, -1, 0, true},
		{CmpLT, 0, 0, false},
		{CmpLE, 0, 0, true},
		{CmpGT, 1, 0, true},
		{CmpGE, 0, 0, true},
		{CmpGE, -5, 0, false},
	}
	for _, c := range cases {
		if got := c.cmp.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.cmp, c.a, c.b, got, c.want)
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		build func() Instr
		want  string
	}{
		{func() Instr { i := MakeInstr(MOVI); i.Dst = 3; i.Imm = 42; return i }, "MOVI R3, 42"},
		{func() Instr {
			i := MakeInstr(LDG)
			i.Dst = 2
			i.SrcA = 0
			i.Imm = 16
			i.WrScbd = 5
			return i
		},
			"LDG R2, [R0+16] &wr=sb5"},
		{func() Instr {
			i := MakeInstr(FMUL)
			i.Dst, i.SrcA, i.SrcB = 2, 2, 10
			i.ReqScbd = 5
			return i
		}, "FMUL R2, R2, R10 &req=sb5"},
		{func() Instr { i := MakeInstr(BSSY); i.Barrier = 0; i.Target = 10; return i }, "BSSY B0, 10"},
		{func() Instr { i := MakeInstr(BSYNC); i.Barrier = 0; return i }, "BSYNC B0"},
		{func() Instr { i := MakeInstr(BRA); i.Pred = PT; i.Target = 7; return i }, "BRA 7"},
		{func() Instr {
			i := MakeInstr(BRA)
			i.Pred, i.PredNeg, i.Target = 0, true, 7
			return i
		}, "@!P0 BRA 7"},
		{func() Instr { i := MakeInstr(TRACE); i.Dst = 4; i.SrcA = 8; i.WrScbd = 1; return i },
			"TRACE R4, R8 &wr=sb1"},
		{func() Instr { i := MakeInstr(BRX); i.SrcA = 9; return i }, "BRX R9"},
	}
	for _, c := range cases {
		if got := c.build().String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

// Assemble the paper's Fig. 9 toy kernel and check it validates and
// disassembles with the same structure.
func TestFig9Kernel(t *testing.T) {
	b := NewBuilder("fig9")
	b.Bssy(0, "syncPoint")   // 0: BSSY B0, syncPoint
	b.BraP(0, false, "Else") // 1: @P0 BRA Else
	b.Tld(2, 0, 0, 5)        // 2: TLD R2, [R0] &wr=sb5
	b.Fmul(10, 5, 6)         // 3: FMUL R10, R5, R6
	b.Fmul(2, 2, 10).Req(5)  // 4: FMUL R2, R2, R10 &req=sb5
	b.Bra("syncPoint")       // 5
	b.Label("Else")
	b.Tex(1, 8, 9, 0, 2)   // 6: TEX R1, [R8+R9] &wr=sb2
	b.Fadd(1, 1, 3).Req(2) // 7: FADD R1, R1, R3 &req=sb2
	b.Bra("syncPoint")     // 8
	b.Label("syncPoint")
	b.Bsync(0) // 9
	b.Exit()   // 10
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 11 {
		t.Fatalf("Len = %d, want 11", p.Len())
	}
	if p.At(0).Target != 9 {
		t.Errorf("BSSY reconvergence target = %d, want 9", p.At(0).Target)
	}
	if p.At(1).Target != 6 {
		t.Errorf("branch target = %d, want 6", p.At(1).Target)
	}
	if p.At(4).ReqScbd != 5 || p.At(7).ReqScbd != 2 {
		t.Error("load-to-use &req annotations missing")
	}
	if p.MaxScoreboard() != 5 {
		t.Errorf("MaxScoreboard = %d, want 5", p.MaxScoreboard())
	}
	d := p.Disassemble()
	for _, want := range []string{"BSSY B0, 9", "TLD", "TEX", "&req=sb5", "&req=sb2", "BSYNC B0"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Bra("nowhere")
	b.Exit()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("a").Nop().Label("a").Exit()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestBuilderReqWithoutInstr(t *testing.T) {
	b := NewBuilder("req")
	b.Req(3)
	b.Exit()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for Req with no prior instruction")
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func(in Instr) *Program {
		exit := MakeInstr(EXIT)
		return &Program{Name: "t", Code: []Instr{in, exit}}
	}
	cases := []struct {
		name string
		in   Instr
	}{
		{"bad opcode", Instr{Op: Opcode(250), WrScbd: NoScoreboard, ReqScbd: NoScoreboard}},
		{"dst out of range", func() Instr { i := MakeInstr(MOVI); i.Dst = NumRegs; return i }()},
		{"write PT", func() Instr { i := MakeInstr(ISETPI); i.Dst = PT; return i }()},
		{"branch target range", func() Instr { i := MakeInstr(BRA); i.Pred = PT; i.Target = 99; return i }()},
		{"barrier range", func() Instr { i := MakeInstr(BSYNC); i.Barrier = NumBarriers; return i }()},
		{"wr on math", func() Instr { i := MakeInstr(IADD); i.WrScbd = 2; return i }()},
		{"load missing wr", MakeInstr(LDG)},
		{"req out of range", func() Instr { i := MakeInstr(IADD); i.ReqScbd = 16; return i }()},
	}
	for _, c := range cases {
		if err := mk(c.in).Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateFallOffEnd(t *testing.T) {
	p := &Program{Name: "t", Code: []Instr{MakeInstr(NOP)}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected fall-off-end error")
	}
	var empty Program
	if err := empty.Validate(); err == nil {
		t.Fatal("expected empty-program error")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	p := &Program{Name: "t", Code: []Instr{MakeInstr(EXIT)}}
	defer func() {
		if recover() == nil {
			t.Error("At(5) should panic")
		}
	}()
	p.At(5)
}

func TestStaticFootprint(t *testing.T) {
	b := NewBuilder("fp")
	for i := 0; i < 15; i++ {
		b.Nop()
	}
	b.Exit()
	p := b.MustBuild()
	if got := p.StaticFootprintBytes(8); got != 128 {
		t.Errorf("footprint = %d, want 128", got)
	}
}

func TestBuilderChainsAllOps(t *testing.T) {
	b := NewBuilder("all")
	b.SetRegsPerThread(48)
	b.Nop().
		Movi(1, 5).Mov(2, 1).S2R(3, SRLaneID).
		Iadd(4, 1, 2).Iaddi(4, 4, 1).Imul(5, 4, 4).Imuli(5, 5, 3).
		Iand(6, 5, 4).Ior(6, 6, 1).Ixor(6, 6, 2).Shl(7, 6, 2).Shr(7, 7, 1).
		Fadd(8, 7, 6).Fmul(8, 8, 8).Ffma(9, 8, 8, 7).Mufu(10, 9).
		Isetp(CmpLT, 0, 4, 5).Isetpi(CmpEQ, 1, 4, 0).
		Ldg(11, 7, 4, 0).Stg(7, 8, 11).Tld(12, 7, 0, 1).Tex(13, 7, 8, 0, 2).
		Trace(14, 3, 3).
		Yield().
		Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.RegsPerThread != 48 {
		t.Errorf("RegsPerThread = %d, want 48", p.RegsPerThread)
	}
	if p.Len() != 26 {
		t.Errorf("Len = %d, want 26", p.Len())
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid program")
		}
	}()
	NewBuilder("bad").Bra("missing").MustBuild()
}

// Property: every generated valid ALU instruction disassembles to a
// string containing its mnemonic.
func TestQuickDisasmContainsMnemonic(t *testing.T) {
	ops := []Opcode{MOVI, MOV, IADD, IADDI, IMUL, IAND, IOR, IXOR, SHL, SHR, FADD, FMUL, FFMA, MUFU}
	f := func(opIdx uint8, dst, a, bb uint8, imm int32) bool {
		op := ops[int(opIdx)%len(ops)]
		in := MakeInstr(op)
		in.Dst, in.SrcA, in.SrcB = dst%NumRegs, a%NumRegs, bb%NumRegs
		in.Imm = imm
		return strings.Contains(in.String(), op.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: builder PC always equals emitted instruction count.
func TestQuickBuilderPC(t *testing.T) {
	f := func(n uint8) bool {
		b := NewBuilder("pc")
		for i := 0; i < int(n%50); i++ {
			if b.PC() != i {
				return false
			}
			b.Nop()
		}
		return b.PC() == int(n%50)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
