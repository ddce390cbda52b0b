package sm

import (
	"fmt"
	"testing"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
)

// allocSM builds a single-SM setup with warps admitted but not yet run,
// so allocation tests and benchmarks can drive Block.step by hand.
func allocSM(tb testing.TB, cfg config.Config, prog *isa.Program, warps int) *SM {
	tb.Helper()
	k := &Kernel{Program: prog, NumWarps: warps, WarpsPerCTA: warps, Memory: mem.NewMemory()}
	s, err := NewSM(0, cfg, k)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warps; i++ {
		s.Admit(i, i, 0, i)
	}
	return s
}

// loadLoop is a kernel dominated by scoreboarded global loads with
// load-to-use consumers: one 128-byte line per lane, alternating
// scoreboards so issue and writeback interleave.
func loadLoop(n int) *isa.Program {
	b := isa.NewBuilder("loadloop")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 7) // lane * 128: one line per lane
	for i := 0; i < n; i++ {
		sb := i % 2
		b.Ldg(2, 1, int32(i*4), sb)
		b.Iadd(3, 3, 2).Req(sb)
	}
	return b.Exit().MustBuild()
}

// TestBlockStepSteadyStateZeroAlloc pins the tentpole's core claim:
// once warmed up, a cycle of the scheduler loop on an ALU-only kernel
// performs zero heap allocations — under every scheduler policy, since
// policies are stateless singletons whose Pick must not allocate.
func TestBlockStepSteadyStateZeroAlloc(t *testing.T) {
	for p := config.SchedPolicy(0); int(p) < config.NumSchedPolicies; p++ {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.SchedPolicy = p
			s := allocSM(t, cfg, straightLine(20000), 4)
			blk := s.blocks[0]
			now := int64(0)
			for ; now < 512; now++ {
				blk.step(now)
			}
			avg := testing.AllocsPerRun(200, func() {
				blk.step(now)
				now++
			})
			if avg != 0 {
				t.Fatalf("steady-state Block.step allocates %.1f times per cycle, want 0", avg)
			}
			if blk.done {
				t.Fatal("kernel finished inside the measured window; enlarge the program")
			}
		})
	}
}

// TestLoadPathZeroAlloc covers the LDG issue path end to end — line
// coalescing, L1D probes, writeback event scheduling, and event
// drain — at steady state.
func TestLoadPathZeroAlloc(t *testing.T) {
	s := allocSM(t, testConfig(), loadLoop(4000), 2)
	blk := s.blocks[0]
	now := int64(0)
	// Warm up past slice growth: event queue high-water mark, scratch
	// buffers, and the L1D's steady miss/hit mix.
	for ; now < 4096; now++ {
		blk.step(now)
	}
	avg := testing.AllocsPerRun(500, func() {
		blk.step(now)
		now++
	})
	if avg != 0 {
		t.Fatalf("steady-state load path allocates %.1f times per cycle, want 0", avg)
	}
	if blk.done {
		t.Fatal("kernel finished inside the measured window; enlarge the program")
	}
}

// TestWritebackDrainZeroAlloc isolates the event-queue push/drop plus
// applyWriteback path: scheduling and draining a full warp's writebacks
// must not allocate once the queue's backing array has grown.
func TestWritebackDrainZeroAlloc(t *testing.T) {
	s := allocSM(t, testConfig(), loadLoop(4), 1)
	blk := s.blocks[0]
	w := blk.warps[0]
	now := int64(100)
	avg := testing.AllocsPerRun(200, func() {
		w.sb.Inc(bits.FullMask, 0)
		for lane := 0; lane < bits.WarpSize; lane++ {
			blk.events.push(wbEvent{
				at: now, base: uint64(lane * 128), warp: w.rid, mask: bits.LaneMask(lane),
				reg: 2, sbid: 0,
			})
		}
		blk.drainEvents(now)
	})
	if avg != 0 {
		t.Fatalf("writeback schedule+drain allocates %.1f times per warp, want 0", avg)
	}
}

// TestCompiledSteadyStateZeroAlloc pins the fast-forward regime's
// steady-state loop — SM.advance, the iteration RunContext itself runs:
// due steps, run planning, bulk commit — at zero heap allocations per
// iteration, and pins the stepped regime (Compiled=false: same
// executor, fast-forward off) separately so the reference path does not
// regress.
func TestCompiledSteadyStateZeroAlloc(t *testing.T) {
	t.Run("compiled-ff", func(t *testing.T) {
		cfg := testConfig()
		cfg.Check = false // the loop as it is served, runs taken
		if !cfg.Compiled {
			t.Fatal("default config no longer selects fast-forward")
		}
		s := allocSM(t, cfg, straightLine(100000), 4)
		if s.ffLen == nil {
			t.Fatal("compiled config did not install fast-forward tables")
		}
		runs := 0
		cycle := func() {
			from := s.now
			if done, err := s.advance(1 << 40); done {
				t.Fatalf("run ended inside the measured window (%v); enlarge the program", err)
			}
			if s.now > from+1 {
				runs++
			}
		}
		for i := 0; i < 512; i++ {
			cycle()
		}
		if runs == 0 {
			t.Fatal("no run was ever taken during warmup; the pin is vacuous")
		}
		avg := testing.AllocsPerRun(200, cycle)
		if avg != 0 {
			t.Fatalf("compiled steady-state loop allocates %.1f times per iteration, want 0", avg)
		}
	})
	t.Run("interpreted", func(t *testing.T) {
		cfg := testConfig()
		cfg.Compiled = false
		s := allocSM(t, cfg, straightLine(20000), 4)
		if s.ffLen != nil {
			t.Fatal("Compiled=false installed fast-forward tables")
		}
		blk := s.blocks[0]
		now := int64(0)
		for ; now < 512; now++ {
			blk.step(now)
		}
		avg := testing.AllocsPerRun(200, func() {
			blk.step(now)
			now++
		})
		if avg != 0 {
			t.Fatalf("stepped steady-state Block.step allocates %.1f times per cycle, want 0", avg)
		}
		if blk.done {
			t.Fatal("kernel finished inside the measured window; enlarge the program")
		}
	})
}

// TestBudgetedSteadyStateZeroAlloc pins the gas meter's hot-loop
// contract: with a budget attached, the per-iteration work advance
// adds — budgetExceeded plus clampJump on every jump over a run — must
// stay allocation-free until the kill actually fires (only the terminal
// *BudgetError may allocate).
func TestBudgetedSteadyStateZeroAlloc(t *testing.T) {
	cfg := testConfig()
	cfg.Check = false
	s := allocSM(t, cfg, straightLine(100000), 4)
	s.budget = &Budget{MaxCycles: 1 << 40, MaxInstrs: 1 << 40, MaxMemBytes: 1 << 40}
	cycle := func() {
		if done, err := s.advance(1 << 40); done {
			t.Fatalf("generous budget ended the run: %v", err)
		}
	}
	for i := 0; i < 512; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Fatalf("budgeted steady-state loop allocates %.1f times per iteration, want 0", avg)
	}
}

// BenchmarkBlockStep measures one scheduler cycle on an ALU-dense
// multi-warp block (the simulator's innermost loop).
func BenchmarkBlockStep(b *testing.B) {
	cfg := testConfig()
	prog := straightLine(2000)
	s := allocSM(b, cfg, prog, 8)
	blk := s.blocks[0]
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blk.done {
			b.StopTimer()
			s = allocSM(b, cfg, prog, 8)
			blk = s.blocks[0]
			now = 0
			b.StartTimer()
		}
		blk.step(now)
		now++
	}
}

// BenchmarkApplySimple measures one lane loop, per warp-op, across 64
// warps: FMUL squaring a register and IADD, on 4 lanes (a subwarp of
// the microbenchmark) and on all 32. The operands are mem.DefaultValue
// words, the contents of unwritten memory the paper's microbenchmark
// loads and squares, or ordinary floats near 1. The two operand sets
// cost the same unless the host multiply has a data-dependent path.
func BenchmarkApplySimple(b *testing.B) {
	const warps = 64
	for _, opc := range []isa.Opcode{isa.FMUL, isa.IADD} {
		for _, mask := range []bits.Mask{bits.FirstN(4), bits.FullMask} {
			for _, operands := range []string{"default-value", "ordinary"} {
				ws := make([]Warp, warps)
				for i := range ws {
					for l := 0; l < bits.WarpSize; l++ {
						addr := uint64(i*bits.WarpSize+l) * 4
						ws[i].regs[1][l], ws[i].regs[2][l] = mem.DefaultValue(addr), mem.DefaultValue(addr+1<<20)
						if operands == "ordinary" {
							ws[i].regs[1][l], ws[i].regs[2][l] = u32(float32(64+l)/64), u32(float32(128-i)/128)
						}
					}
				}
				op := &isa.Instr{Op: opc, Dst: 3, SrcA: 1, SrcB: 1}
				if opc == isa.IADD {
					op.SrcB = 2
				}
				b.Run(fmt.Sprintf("%v/lanes=%d/%s", opc, mask.Count(), operands), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ws[i%warps].applySimple(mask, op)
					}
				})
			}
		}
	}
}

// BenchmarkExecuteLoad measures a full-warp LDG issue (32 lanes, one
// line each) plus the drain of its 32 per-line writeback events.
func BenchmarkExecuteLoad(b *testing.B) {
	cfg := testConfig()
	s := allocSM(b, cfg, loadLoop(4), 1)
	blk := s.blocks[0]
	w := blk.warps[0]
	for lane := 0; lane < bits.WarpSize; lane++ {
		w.regs[1][lane] = uint32(lane * 128)
	}
	op := &isa.Instr{Op: isa.LDG, Dst: 2, SrcA: 1, WrScbd: 0, ReqScbd: isa.NoScoreboard}
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.executeLoad(w, op, now)
		blk.drainEvents(now + 1_000_000)
		now += 4
	}
}

// TestServingConfigZeroAlloc pins the observability plane's hot-loop
// contract: the configuration the obs-enabled daemon hands to each job
// (cfg.Trace == nil — spans, metrics, and logs all live above the
// simulator) must keep the steady-state scheduler cycle allocation-free,
// with and without SI. If an observability hook ever reaches into
// Block.step, this trips.
func TestServingConfigZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", testConfig()},
		{"si", testConfig().WithSI(true, config.TriggerHalfStalled)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Trace != nil {
				t.Fatal("serving configs must not attach an event recorder")
			}
			s := allocSM(t, tc.cfg, loadLoop(4000), 4)
			blk := s.blocks[0]
			now := int64(0)
			for ; now < 4096; now++ {
				blk.step(now)
			}
			avg := testing.AllocsPerRun(500, func() {
				blk.step(now)
				now++
			})
			if avg != 0 {
				t.Fatalf("serving-config Block.step allocates %.1f times per cycle, want 0", avg)
			}
			if blk.done {
				t.Fatal("kernel finished inside the measured window; enlarge the program")
			}
		})
	}
}
