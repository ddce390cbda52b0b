package sm

import (
	"math"
	"math/rand"
	"testing"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
)

// The independent per-op reference. The SM has one executor and one
// definition of each operation's lane semantics (Warp.applySimple,
// reading pre-lowered isa.COp fields), so nothing inside the simulator
// cross-checks that definition any more. refOps restates every ALU,
// compare, and move opcode as one plain Go expression over the
// *unlowered* isa.Instr — no COp, no UImm/Sh pre-widening, no CmpOp.Eval
// — and the tests below require the production path (compile pass +
// Block.execute) to agree with it bit for bit. The whole-program
// per-thread oracle is ROADMAP item 4; this is its per-instruction
// floor.

// refThread is one thread's architectural state as the reference sees
// it: registers, predicates, and the S2R special registers.
type refThread struct {
	r  [isa.NumRegs]uint32
	p  [isa.NumPreds]bool
	sr [4]uint32
}

func f32(u uint32) float32 { return math.Float32frombits(u) }
func u32(f float32) uint32 { return math.Float32bits(f) }

func refCmp(c isa.CmpOp, a, b int32) bool {
	return [...]bool{
		isa.CmpEQ: a == b, isa.CmpNE: a != b, isa.CmpLT: a < b,
		isa.CmpLE: a <= b, isa.CmpGT: a > b, isa.CmpGE: a >= b,
	}[c]
}

var refOps = map[isa.Opcode]func(in isa.Instr, t *refThread){
	isa.NOP:   func(in isa.Instr, t *refThread) {},
	isa.MOVI:  func(in isa.Instr, t *refThread) { t.r[in.Dst] = uint32(in.Imm) },
	isa.MOV:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] },
	isa.S2R:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.sr[in.SrcA] },
	isa.IADD:  func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] + t.r[in.SrcB] },
	isa.IADDI: func(in isa.Instr, t *refThread) { t.r[in.Dst] = uint32(int32(t.r[in.SrcA]) + in.Imm) },
	isa.IMUL:  func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] * t.r[in.SrcB] },
	isa.IMULI: func(in isa.Instr, t *refThread) { t.r[in.Dst] = uint32(int32(t.r[in.SrcA]) * in.Imm) },
	isa.IAND:  func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] & t.r[in.SrcB] },
	isa.IOR:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] | t.r[in.SrcB] },
	isa.IXOR:  func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] ^ t.r[in.SrcB] },
	isa.SHL:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] << (uint32(in.Imm) % 32) },
	isa.SHR:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = t.r[in.SrcA] >> (uint32(in.Imm) % 32) },
	isa.ISETP: func(in isa.Instr, t *refThread) {
		t.p[in.Dst] = refCmp(in.Cmp, int32(t.r[in.SrcA]), int32(t.r[in.SrcB]))
	},
	isa.ISETPI: func(in isa.Instr, t *refThread) { t.p[in.Dst] = refCmp(in.Cmp, int32(t.r[in.SrcA]), in.Imm) },
	isa.FADD:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = u32(f32(t.r[in.SrcA]) + f32(t.r[in.SrcB])) },
	isa.FMUL:   func(in isa.Instr, t *refThread) { t.r[in.Dst] = u32(f32(t.r[in.SrcA]) * f32(t.r[in.SrcB])) },
	isa.FFMA: func(in isa.Instr, t *refThread) {
		t.r[in.Dst] = u32(f32(t.r[in.SrcA])*f32(t.r[in.SrcB]) + f32(t.r[in.SrcC]))
	},
	isa.MUFU: func(in isa.Instr, t *refThread) {
		t.r[in.Dst] = u32(float32(1 / math.Sqrt(math.Abs(float64(f32(t.r[in.SrcA])))+1)))
	},
}

// edgeWords are the register operands the random draw is salted with:
// integer extremes (signedness for ISETP vs ISETPI), shift-sized
// values, and the float specials — ±0, ±Inf, quiet and signalling NaN,
// a denormal — whose handling FADD/FMUL/FFMA/MUFU must reproduce.
var edgeWords = []uint32{
	0, 1, 2, 31, 32, 0x7FFFFFFF,
	0x80000000,             // INT_MIN, and -0.0
	0xFFFFFFFF,             // -1, and a NaN
	0x3F800000, 0xBF800000, // ±1.0
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0x7FA00000, // quiet, signalling NaN
	0x00000001, 0x7F7FFFFF, // smallest denormal, largest finite
}

// edgeImms exercise the lowering's pre-widening: shift counts at and
// beyond the register width and negative ones (COp.Sh masking), and
// signed extremes for the immediate ALU and compare forms.
var edgeImms = []int32{0, 1, -1, 5, 31, 32, 33, 35, 63, 64, -31, -32, -33, math.MinInt32, math.MaxInt32}

func drawWord(rng *rand.Rand) uint32 {
	if rng.Intn(2) == 0 {
		return edgeWords[rng.Intn(len(edgeWords))]
	}
	return rng.Uint32()
}

// oneWarp lowers prog and returns an SM holding a single resident warp
// with a non-trivial identity (warp 1 of CTA 3), poised at PC 0.
func oneWarp(t *testing.T, prog *isa.Program) (*SM, *Warp) {
	t.Helper()
	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 2, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 7, 3, 1)
	return s, s.blocks[0].warps[0]
}

// single wraps one instruction into a runnable program.
func single(in isa.Instr) *isa.Program {
	return &isa.Program{Name: "opref", Code: []isa.Instr{in, isa.MakeInstr(isa.EXIT)}, RegsPerThread: isa.NumRegs}
}

// randomize fills every lane's registers and predicates and mirrors
// them, with the lane's special registers, into the reference state.
func randomize(rng *rand.Rand, w *Warp) (ref [bits.WarpSize]refThread) {
	for l := range ref {
		for r := range w.regs[l] {
			w.regs[l][r] = drawWord(rng)
		}
		for p := range w.preds[l] {
			w.preds[l][p] = rng.Intn(2) == 0
		}
		ref[l] = refThread{r: w.regs[l], p: w.preds[l], sr: [4]uint32{
			isa.SRLaneID:   uint32(l),
			isa.SRWarpID:   1,
			isa.SRCTAID:    3,
			isa.SRThreadID: uint32(3*2*bits.WarpSize + 1*bits.WarpSize + l),
		}}
	}
	return ref
}

// sameRegs compares a lane's register file with the reference bit for
// bit, with one exemption: when a float op produces NaN, only NaN-ness
// is compared. NaN payloads are not architectural — with two NaN
// inputs the hardware propagates whichever the compiler placed first,
// and Go is free to commute a*b and a+b.
func sameRegs(in isa.Instr, got, want *[isa.NumRegs]uint32) bool {
	if *got == *want {
		return true
	}
	switch in.Op {
	case isa.FADD, isa.FMUL, isa.FFMA, isa.MUFU:
	default:
		return false
	}
	g, w := f32(got[in.Dst]), f32(want[in.Dst])
	if g == g || w == w {
		return false // at least one is not NaN
	}
	patched := *want
	patched[in.Dst] = got[in.Dst]
	return *got == patched
}

// TestOpsMatchReference: for every opcode in refOps, single-instruction
// programs with random register fields, edge-salted operands and
// immediates, and a random active mask must leave every lane's
// registers and predicates exactly as the reference says — active
// lanes updated, inactive lanes untouched — and advance the PC by one.
func TestOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for op := isa.Opcode(0); op.Valid(); op++ { // opcode order: the draws replay
		ref, ok := refOps[op]
		if !ok {
			continue
		}
		for trial := 0; trial < 48; trial++ {
			in := isa.MakeInstr(op)
			in.Dst = uint8(rng.Intn(isa.NumRegs))
			in.SrcA = uint8(rng.Intn(isa.NumRegs))
			in.SrcB = uint8(rng.Intn(isa.NumRegs))
			in.SrcC = uint8(rng.Intn(isa.NumRegs))
			in.Cmp = isa.CmpOp(rng.Intn(int(isa.CmpGE) + 1))
			in.Imm = int32(rng.Uint32())
			if trial < len(edgeImms) {
				in.Imm = edgeImms[trial]
			}
			switch op {
			case isa.ISETP, isa.ISETPI:
				in.Dst = uint8(rng.Intn(isa.PT))
			case isa.S2R:
				in.SrcA = uint8(rng.Intn(4))
			}
			prog := single(in)
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s: %v", in, err)
			}
			s, w := oneWarp(t, prog)
			want := randomize(rng, w)
			mask := bits.Mask(rng.Uint32()).Set(rng.Intn(bits.WarpSize))
			w.active = mask
			s.blocks[0].execute(w, 0)

			if w.activePC != 1 {
				t.Fatalf("%s: activePC = %d after issue, want 1", in, w.activePC)
			}
			for l := range want {
				if mask.Has(l) {
					ref(in, &want[l])
				}
				if !sameRegs(in, &w.regs[l], &want[l].r) || w.preds[l] != want[l].p {
					t.Fatalf("%s (imm %d, mask %v) lane %d (active=%v) diverges from the reference:\n  A=%#x B=%#x C=%#x\n  got  R%d=%#x preds=%v\n  want R%d=%#x preds=%v",
						in, in.Imm, mask, l, mask.Has(l),
						want[l].r[in.SrcA], want[l].r[in.SrcB], want[l].r[in.SrcC],
						in.Dst, w.regs[l][in.Dst], w.preds[l], in.Dst, want[l].r[in.Dst], want[l].p)
				}
			}
		}
	}
}

// TestReferenceCoversSimpleOps keeps the table honest: every opcode the
// compile pass classifies fast-forward-simple (and so routes through
// applySimple) needs a reference line, except the two with no
// per-thread data semantics — BSSY (a warp-level barrier mask) and
// YIELD (a scheduling hint).
func TestReferenceCoversSimpleOps(t *testing.T) {
	simple := 0
	for op := isa.Opcode(0); op.Valid(); op++ {
		if single(isa.MakeInstr(op)).Compiled().FFLenYieldInert[0] == 0 {
			continue
		}
		simple++
		if _, ok := refOps[op]; !ok && op != isa.BSSY && op != isa.YIELD {
			t.Errorf("%v is fast-forward-simple but has no reference in refOps", op)
		}
	}
	if simple != len(refOps)+2 {
		t.Errorf("compile pass reports %d simple opcodes, refOps has %d (+BSSY, YIELD)", simple, len(refOps))
	}
}

// TestAddressImmediatesZeroExtend: STG/LDG/TLD/TEX form addresses as
// the 32-bit base register plus the immediate zero-extended through
// uint32 (COp.UImm) — a negative immediate must not sign-extend to 64
// bits, and a base near 4 GiB must not wrap at 32. Stores are checked
// by reading the reference address back; loads by planting a per-lane
// sentinel at the reference address and draining the writebacks.
func TestAddressImmediatesZeroExtend(t *testing.T) {
	refAddr := func(in isa.Instr, th *refThread) uint64 {
		a := uint64(th.r[in.SrcA]) + uint64(uint32(in.Imm))
		if in.Op == isa.TEX {
			a += uint64(th.r[in.SrcB])
		}
		return a
	}
	for _, op := range []isa.Opcode{isa.STG, isa.LDG, isa.TLD, isa.TEX} {
		for _, imm := range []int32{-4, -128, math.MinInt32, 0, 4, math.MaxInt32 - 3} {
			in := isa.MakeInstr(op)
			in.SrcA, in.SrcB, in.Dst, in.Imm = 1, 2, 3, imm
			if op != isa.STG {
				in.WrScbd = 0
			}
			prog := single(in)
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s: %v", in, err)
			}
			s, w := oneWarp(t, prog)
			var ref [bits.WarpSize]refThread
			for l := range ref {
				base := uint32(l * 256)
				if l >= bits.WarpSize/2 {
					base += 0xFFFF0000
				}
				w.regs[l][1], w.regs[l][2] = base, uint32(l*4)
				ref[l].r = w.regs[l]
				if op != isa.STG {
					s.mem.Store(refAddr(in, &ref[l]), 0xB000+uint32(l))
				}
			}
			blk := s.blocks[0]
			blk.execute(w, 0)
			blk.drainEvents(math.MaxInt64)
			for l := range ref {
				addr := refAddr(in, &ref[l])
				if op == isa.STG {
					if got := s.mem.Load(addr); got != uint32(l*4) {
						t.Errorf("%s imm %d lane %d: mem[%#x] = %#x, want the stored %#x", op, imm, l, addr, got, l*4)
					}
				} else if got := w.regs[l][3]; got != 0xB000+uint32(l) {
					t.Errorf("%s imm %d lane %d: loaded %#x, want the sentinel at %#x", op, imm, l, got, addr)
				}
			}
		}
	}
}
