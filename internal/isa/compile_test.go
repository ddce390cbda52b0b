package isa

import (
	"slices"
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
	// No write here is overwritten unread before its run ends: R2's
	// IADDI at 1 is rewritten at 5, past the predicated BRA.
	for pc, q := range c.DeadAt {
		if q != -1 {
			t.Errorf("DeadAt[%d] = %d, want -1", pc, q)
		}
	}

	// A run is a path along Next: a forward unconditional BRA is a
	// member and hands the run to its target; every other branch ends it.
	for _, tc := range []struct {
		name, src          string
		next, ffLen, inert []int32
	}{
		{"a forward BRA joins runs", `
			IADD R1, R2, R3
			BRA skip
			IADD R4, R4, R4
		skip:
			IADD R5, R5, R5
			EXIT`, []int32{1, 3, 3, 4, 5}, []int32{3, 2, 2, 1, 0}, nil},
		{"a BRA to pc+1 joins runs", `
			IADD R1, R2, R3
			@P7 BRA next
		next:
			IADD R5, R5, R5
			EXIT`, []int32{1, 2, 3, 4}, []int32{3, 2, 1, 0}, nil},
		{"a backward BRA ends a run", `
		top:
			IADD R1, R2, R3
			BRA top
			EXIT`, []int32{1, 2, 3}, []int32{1, 0, 0}, nil},
		{"a BRA to itself ends a run", `
			IADD R1, R2, R3
		self:
			BRA self
			EXIT`, []int32{1, 2, 3}, []int32{1, 0, 0}, nil},
		{"a predicated BRA ends a run", `
			IADD R1, R2, R3
			@P0 BRA out
			IADD R4, R4, R4
		out:
			EXIT`, []int32{1, 2, 3, 4}, []int32{1, 0, 1, 0}, nil},
		{"a never-taken BRA ends a run", `
			IADD R1, R2, R3
			@!P7 BRA out
			IADD R4, R4, R4
		out:
			EXIT`, []int32{1, 2, 3, 4}, []int32{1, 0, 1, 0}, nil},
		{"a YIELD next to a branch", `
			IADD R1, R2, R3
			YIELD
			BRA skip
			NOP
		skip:
			IADD R5, R5, R5
			EXIT`, []int32{1, 2, 4, 4, 5, 6}, []int32{1, 0, 2, 2, 1, 0}, []int32{4, 3, 2, 2, 1, 0}},
	} {
		p, err := Assemble(tc.name, ".regs 16\n"+tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := p.Compiled()
		if tc.inert == nil {
			tc.inert = tc.ffLen
		}
		if !slices.Equal(c.Next, tc.next) || !slices.Equal(c.FFLen, tc.ffLen) || !slices.Equal(c.FFLenYieldInert, tc.inert) {
			t.Errorf("%s: Next = %v, FFLen = %v, FFLenYieldInert = %v; want %v, %v, %v",
				tc.name, c.Next, c.FFLen, c.FFLenYieldInert, tc.next, tc.ffLen, tc.inert)
		}
	}

	// DeadAt is the distance along the run's path to the op that
	// overwrites a GPR write unread (YIELD counted as simple).
	for _, tc := range []struct {
		name, src string
		dead      []int32
	}{
		{"overwritten unread", `
			FMUL R11, R9, R9
			MOV R10, R9
			FMUL R11, R9, R9
			FMUL R11, R9, R9
			EXIT`, []int32{2, -1, 1, -1, -1}},
		{"read in between", `
			FMUL R11, R9, R9
			IADD R2, R11, R9
			FMUL R11, R9, R9
			EXIT`, []int32{-1, -1, -1, -1}},
		{"overwrite reads its destination", `
			FMUL R11, R9, R9
			FMUL R11, R11, R9
			FFMA R11, R9, R9, R11
			EXIT`, []int32{-1, -1, -1, -1}},
		{"different destination", `
			FMUL R11, R9, R9
			FMUL R12, R9, R9
			EXIT`, []int32{-1, -1, -1}},
		{"overwrite past an LDG", `
			FMUL R11, R9, R9
			LDG R3, [R4+0] &wr=sb0
			FMUL R11, R9, R9
			EXIT`, []int32{-1, -1, -1, -1}},
		{"overwrite past a &req op", `
			LDG R3, [R4+0] &wr=sb0
			FMUL R11, R9, R9
			IADD R5, R6, R7 &req=sb0
			FMUL R11, R9, R9
			EXIT`, []int32{-1, -1, -1, -1, -1}},
		{"ISETP and BSSY are never entries", `
			ISETP.LT P0, R1, R2
			BSSY B0, join
			ISETP.LT P0, R1, R2
			S2R R11, SR0
			ISETP.LT P1, R11, R2
			S2R R11, SR0
			BSSY B0, join
			S2R R11, SR0
		join:
			BSYNC B0
			EXIT`, []int32{-1, -1, -1, -1, -1, 2, -1, -1, -1, -1}},
		{"a YIELD in between", `
			FMUL R11, R9, R9
			YIELD
			FMUL R11, R9, R9
			EXIT`, []int32{2, -1, -1, -1}},
		{"overwrite past a branch on the path", `
			FMUL R11, R9, R9
			BRA skip
			IADD R2, R11, R9
		skip:
			FMUL R11, R9, R9
			EXIT`, []int32{2, -1, -1, -1, -1}},
		{"overwrite after the branch but off the path", `
			FMUL R11, R9, R9
			BRA skip
			FMUL R11, R9, R9
		skip:
			IADD R2, R11, R9
			EXIT`, []int32{-1, -1, -1, -1, -1}},
	} {
		p, err := Assemble(tc.name, ".regs 16\n"+tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.Compiled().DeadAt; !slices.Equal(got, tc.dead) {
			t.Errorf("%s: DeadAt = %v, want %v", tc.name, got, tc.dead)
		}
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
