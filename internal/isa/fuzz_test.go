package isa_test

import (
	"testing"

	"subwarpsim/internal/isa"
)

// FuzzAssemble drives the assembler with arbitrary source text and
// checks the printable-syntax contract: Assemble never panics, and any
// source it accepts reaches a disassembly fixed point — the
// disassembly reassembles successfully, reproduces the same encoded
// program, and prints identically the second time around.
func FuzzAssemble(f *testing.F) {
	f.Add("EXIT\n")
	f.Add("NOP\nEXIT\n")
	f.Add(".regs 40\nMOVI R1, 128\nEXIT\n")
	f.Add("S2R R0, SR0\nSHL R1, R0, 7\nLDG R2, [R1+0] &wr=sb0\nIADD R3, R2, R2 &req=sb0\nEXIT\n")
	f.Add("start:\nISETP.LT P0, R0, 16\nBSSY B0, join\n@P0 BRA start\njoin:\nBSYNC B0\nEXIT\n")
	f.Add("TLD R4, [R1+8] &wr=sb1\nTEX R5, [R1+R2+4] &wr=sb2\nTRACE R6, R5 &wr=sb3\nMUFU R7, R6 &req=sb3\nEXIT\n")
	f.Add("loop:\nIADDI R1, R1, -1\nISETPI.GT P1, R1, 0\n@P1 BRA loop\nSTG [R0+0], R1\nYIELD\nEXIT\n")
	f.Add("# comment\nNOP // trailing\nBRX R2\nEXIT\n")
	for _, s := range treeSources(f) {
		f.Add(s.src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		p1, err := isa.Assemble("fuzz", src)
		if err != nil {
			return // rejected input; only panics are failures
		}
		d1 := p1.Disassemble()
		p2, err := isa.Assemble("fuzz", d1)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\naccepted source:\n%s\ndisassembly:\n%s",
				err, src, d1)
		}
		if p2.Len() != p1.Len() {
			t.Fatalf("reassembly length %d != %d\ndisassembly:\n%s", p2.Len(), p1.Len(), d1)
		}
		for pc := range p1.Code {
			if p2.Code[pc] != p1.Code[pc] {
				t.Fatalf("pc %d: reassembled %v != %v\ndisassembly:\n%s",
					pc, p2.Code[pc], p1.Code[pc], d1)
			}
		}
		if p2.RegsPerThread != p1.RegsPerThread {
			t.Fatalf("RegsPerThread %d != %d after round-trip", p2.RegsPerThread, p1.RegsPerThread)
		}
		if d2 := p2.Disassemble(); d2 != d1 {
			t.Fatalf("disassembly is not a fixed point:\nfirst:\n%s\nsecond:\n%s", d1, d2)
		}
		// Accepted programs must also be structurally valid — the
		// assembler must not hand the SM an instruction Validate rejects.
		if err := p1.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v\nsource:\n%s", err, src)
		}
	})
}
