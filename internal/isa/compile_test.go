package isa

import (
	"sync"
	"testing"
)

// compileProgram builds a small program exercising every structural
// feature the compile pass analyzes: straight-line ALU runs, a
// divergent branch with a BSSY/BSYNC convergence region, a scoreboarded
// load, a YIELD, and an indirect branch.
func compileProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("compiletest").SetRegsPerThread(16)
	b.Movi(1, 5)             // 0
	b.Iaddi(2, 1, 1)         // 1
	b.Bssy(0, "join")        // 2
	b.Isetpi(CmpLT, 0, 1, 3) // 3
	b.BraP(0, false, "else") // 4
	b.Imuli(2, 2, 3)         // 5
	b.Bsync(0)               // 6
	b.Label("else")          //
	b.Ldg(3, 1, 8, 1)        // 7
	b.Iadd(4, 3, 2).Req(1)   // 8
	b.Yield()                // 9
	b.Bsync(0)               // 10
	b.Label("join")          //
	b.Exit()                 // 11
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileOpsMirrorInstrs(t *testing.T) {
	p := compileProgram(t)
	c := p.Compiled()
	if len(c.Ops) != len(p.Code) {
		t.Fatalf("Ops len %d, program len %d", len(c.Ops), len(p.Code))
	}
	for pc, in := range p.Code {
		op := c.Ops[pc]
		if op.Op != in.Op || op.Dst != in.Dst || op.SrcA != in.SrcA || op.SrcB != in.SrcB ||
			op.SrcC != in.SrcC || op.Pred != in.Pred || op.PredNeg != in.PredNeg ||
			op.Barrier != in.Barrier || op.Cmp != in.Cmp ||
			op.WrScbd != in.WrScbd || op.ReqScbd != in.ReqScbd ||
			op.Imm != in.Imm || op.Target != int32(in.Target) {
			t.Errorf("pc %d: operand mismatch: %+v vs %+v", pc, op, in)
		}
		if op.UImm != uint64(uint32(in.Imm)) {
			t.Errorf("pc %d: UImm %d, want %d", pc, op.UImm, uint64(uint32(in.Imm)))
		}
		if op.Sh != uint32(in.Imm)&31 {
			t.Errorf("pc %d: Sh %d, want %d", pc, op.Sh, uint32(in.Imm)&31)
		}
	}
}

func TestCompileWidensNegativeImmediates(t *testing.T) {
	// A negative address immediate must zero-extend through uint32, not
	// sign-extend to 64 bits: the load path adds UImm to a 32-bit base.
	p := NewBuilder("negimm").SetRegsPerThread(8).
		Shl(1, 1, 35). // shift amounts are masked mod 32
		Stg(1, -4, 2).
		Exit().MustBuild()
	c := p.Compiled()
	if want := uint64(uint32(0xFFFFFFFC)); c.Ops[1].UImm != want {
		t.Errorf("UImm = %#x, want %#x", c.Ops[1].UImm, want)
	}
	if c.Ops[0].Sh != 3 {
		t.Errorf("Sh = %d, want 3 (35 mod 32)", c.Ops[0].Sh)
	}
}

func TestCompileBasicBlocks(t *testing.T) {
	p := compileProgram(t)
	c := p.Compiled()

	// Leaders: 0 (entry), 3 (BSSY fall-through is not a leader, but its
	// target 11 is; BRA at 4 makes 5 a leader and its target 7 a
	// leader), 7, 9 is not a leader (YIELD does not end a block), 11.
	wantStarts := []int{0, 5, 7, 11}
	if len(c.Blocks) != len(wantStarts) {
		t.Fatalf("got %d blocks %+v, want starts %v", len(c.Blocks), c.Blocks, wantStarts)
	}
	for i, s := range wantStarts {
		if c.Blocks[i].Start != s {
			t.Errorf("block %d starts at %d, want %d", i, c.Blocks[i].Start, s)
		}
	}
	// Every PC maps to the block containing it.
	for pc := range p.Code {
		bb := c.Blocks[c.BlockOf[pc]]
		if pc < bb.Start || pc >= bb.End {
			t.Errorf("BlockOf[%d] = %d covers [%d,%d)", pc, c.BlockOf[pc], bb.Start, bb.End)
		}
	}
}

func TestCompileFastForwardRuns(t *testing.T) {
	p := compileProgram(t)
	c := p.Compiled()

	// PCs 0..3 are simple (MOVI, IADDI, BSSY, ISETPI); the BRA at 4
	// ends the run in both tables.
	for pc, want := range []int32{4, 3, 2, 1, 0} {
		if c.FFLen[pc] != want || c.FFLenYieldInert[pc] != want {
			t.Errorf("FFLen[%d] = %d/%d, want %d", pc, c.FFLen[pc], c.FFLenYieldInert[pc], want)
		}
	}
	// The LDG at 7 writes a scoreboard: never simple. The IADD at 8
	// waits on one (Req): never simple either.
	if c.FFLen[7] != 0 || c.FFLenYieldInert[7] != 0 {
		t.Errorf("FFLen[7] = %d/%d, want 0 (load)", c.FFLen[7], c.FFLenYieldInert[7])
	}
	if c.FFLen[8] != 0 || c.FFLenYieldInert[8] != 0 {
		t.Errorf("FFLen[8] = %d/%d, want 0 (scoreboard wait)", c.FFLen[8], c.FFLenYieldInert[8])
	}
	// The YIELD at 9 is where the two tables differ: a run may cross it
	// only when YIELD is architecturally inert.
	if c.FFLen[9] != 0 {
		t.Errorf("FFLen[9] = %d, want 0 (YIELD may switch subwarps)", c.FFLen[9])
	}
	if c.FFLenYieldInert[9] != 1 {
		t.Errorf("FFLenYieldInert[9] = %d, want 1 (inert YIELD, then BSYNC)", c.FFLenYieldInert[9])
	}
}

func TestCompileCached(t *testing.T) {
	p := compileProgram(t)
	if got := p.CompileCount(); got != 0 {
		t.Fatalf("CompileCount before first use = %d, want 0", got)
	}
	first := p.Compiled()
	// Concurrent callers must all observe the same single compilation.
	const callers = 8
	results := make([]*Compiled, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.Compiled()
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != first {
			t.Errorf("caller %d got a different Compiled pointer", i)
		}
	}
	if got := p.CompileCount(); got != 1 {
		t.Errorf("CompileCount = %d, want 1", got)
	}
}
