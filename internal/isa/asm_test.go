package isa

import (
	"strings"
	"testing"
)

func TestAssembleSimple(t *testing.T) {
	src := `
		// a trivial kernel
		.regs 40
		S2R R0, SR0
		MOVI R1, 128
		IADD R2, R0, R1
		EXIT
	`
	p, err := Assemble("simple", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
	if p.RegsPerThread != 40 {
		t.Errorf("RegsPerThread = %d, want 40", p.RegsPerThread)
	}
	if p.Code[1].Op != MOVI || p.Code[1].Imm != 128 {
		t.Errorf("instr 1 = %v", p.Code[1])
	}
	if p.Code[2].Op != IADD {
		t.Errorf("instr 2 = %v", p.Code[2])
	}
}

func TestAssembleFig9(t *testing.T) {
	// The paper's Fig. 9 kernel, nearly verbatim.
	src := `
		S2R R0, SR0
		ISETP.EQ P0, R0, 0
		BSSY B0, syncPoint
		@P0 BRA Else
		TLD R2, [R0+4096] &wr=sb5
		FMUL R10, R5, R6
		FMUL R2, R2, R10 &req=sb5
		BRA syncPoint
	Else:
		TEX R1, [R8+R9+0] &wr=sb2
		FADD R1, R1, R3 &req=sb2
		BRA syncPoint
	syncPoint:
		BSYNC B0
		EXIT
	`
	p, err := Assemble("fig9", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 13 {
		t.Fatalf("Len = %d, want 13", p.Len())
	}
	// BSSY reconverges at the BSYNC.
	if p.Code[2].Op != BSSY || p.Code[2].Target != 11 {
		t.Errorf("BSSY = %v", p.Code[2])
	}
	// Predicated branch to Else.
	bra := p.Code[3]
	if bra.Op != BRA || bra.Pred != 0 || bra.PredNeg || bra.Target != 8 {
		t.Errorf("BRA = %v", bra)
	}
	if p.Code[4].WrScbd != 5 || p.Code[6].ReqScbd != 5 {
		t.Error("sb5 annotations lost")
	}
	if p.Code[8].Op != TEX || p.Code[8].WrScbd != 2 {
		t.Errorf("TEX = %v", p.Code[8])
	}
}

func TestAssembleOperandForms(t *testing.T) {
	src := `
		MOVI R1, 0x10
		IADD R2, R1, 5
		IMUL R3, R2, R1
		IMUL R3, R3, -7
		SHL R4, R3, 2
		SHR R4, R4, 1
		IAND R5, R4, R1
		IOR R5, R5, R2
		IXOR R5, R5, R3
		FFMA R6, R5, R4, R3
		MUFU R7, R6
		MOV R8, R7
		ISETP.GE P1, R8, R1
		ISETP.NE P2, R8, 99
		LDG R9, [R1+256] &wr=sb1
		TLD R10, [R1+0] &wr=sb2
		STG [R1+4], R9
		TRACE R11, R1 &wr=sb3
		MOVI R12, 0xFFFFFFFF
		BRX R4
	`
	p, err := Assemble("forms", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 16 {
		t.Errorf("hex immediate = %d", p.Code[0].Imm)
	}
	if p.Code[1].Op != IADDI {
		t.Error("IADD with immediate should become IADDI")
	}
	if p.Code[2].Op != IMUL || p.Code[3].Op != IMULI || p.Code[3].Imm != -7 {
		t.Error("IMUL forms wrong")
	}
	if p.Code[12].Op != ISETP || p.Code[13].Op != ISETPI {
		t.Error("ISETP forms wrong")
	}
	if p.Code[18].Imm != -1 {
		t.Errorf("0xFFFFFFFF = %d, want -1", p.Code[18].Imm)
	}
}

func TestAssembleNumericTargets(t *testing.T) {
	src := `
		NOP
		BRA 3
		NOP
		EXIT
	`
	p, err := Assemble("numeric", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Target != 3 {
		t.Errorf("numeric target = %d", p.Code[1].Target)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "FROB R1, R2\nEXIT"},
		{"bad register", "MOVI R99, 1\nEXIT"},
		{"bad predicate", "@P9 BRA x\nx:\nEXIT"},
		{"wrong operand count", "IADD R1, R2\nEXIT"},
		{"undefined label", "BRA nowhere\nEXIT"},
		{"bad immediate", "MOVI R1, banana\nEXIT"},
		{"bad address", "LDG R1, R2 &wr=sb0\nEXIT"},
		{"wr on math", "IADD R1, R2, R3 &wr=sb0\nEXIT"},
		{"bad regs directive", ".regs zero\nEXIT"},
		{"bad cmp", "ISETP.XX P0, R1, R2\nEXIT"},
		{"tex without rb", "TEX R1, [R2+0] &wr=sb0\nEXIT"},
		{"guard on non-branch", "@P0 MOVI R1, 2\nEXIT"},
		{"scoreboard range", "LDG R1, [R2+0] &wr=sb99\nEXIT"},
		{"stg two regs", "STG [R1+R2+0], R3\nEXIT"},
		{"offset past 32 bits", "LDG R1, [R0+4294967296] &wr=sb0\nEXIT"},
		{"immediate past 32 bits", "MOVI R1, 4294967296\nEXIT"},
		{"immediate below int32", "MOVI R1, -2147483649\nEXIT"},
		{"signed register index", "MOV R+1, R2\nEXIT"},
		{"negative zero register index", "MOV R1, R-0\nEXIT"},
		{"signed predicate index", "@P+1 BRA x\nx:\nEXIT"},
		{"signed special register", "S2R R1, SR+3\nEXIT"},
	}
	for _, c := range cases {
		if _, err := Assemble("bad", c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAssembleNegatedPredicate(t *testing.T) {
	src := `
		ISETP.LT P0, R0, 16
		@!P0 BRA done
		NOP
	done:
		EXIT
	`
	p, err := Assemble("neg", src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Code[1].PredNeg || p.Code[1].Pred != 0 {
		t.Errorf("negated guard = %v", p.Code[1])
	}
}

func TestAssembleIgnoresComments(t *testing.T) {
	src := `
		# hash comment
		NOP // trailing
		EXIT
	`
	p, err := Assemble("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestAssembleDisasmHeaderTolerated(t *testing.T) {
	// Disassemble emits a "// name" header line and "PC:" prefixes;
	// both must parse.
	src := "// kernel (3 instrs)\n   0: NOP\n   1: NOP\n   2: EXIT\n"
	p, err := Assemble("hdr", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if !strings.Contains(p.Disassemble(), "EXIT") {
		t.Error("disassembly lost EXIT")
	}
}
