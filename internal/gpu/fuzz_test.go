package gpu

import (
	"errors"
	"fmt"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
)

// fuzzMaxCycles tightens the global simulation budget while fuzzing:
// generated kernels are tiny, so a run that needs more cycles than
// this is a hang, and a short budget keeps exec rates useful.
const fuzzMaxCycles = 500_000

// fuzzProgram maps fuzz bytes onto a small always-valid, always-
// terminating kernel program. Byte by byte it picks from a menu of ALU
// ops, scoreboarded loads/textures with consumers, private-slot
// stores, lane-predicated divergence regions (BSSY/@!P BRA/BSYNC),
// bounded lane-divergent loops, BRX jump-table dispatches whose
// lanes scatter over 2 or 4 reconverging case bodies, and BFS-style
// data-dependent loops whose trip count comes from memory (including a
// frontier-empty pre-test that skips the walk entirely). Register,
// predicate, barrier, and scoreboard indices are reduced into valid
// ranges by construction, so any input yields a program Build accepts;
// interesting inputs differ in control structure, not validity. Every
// divergent construct arms a convergence barrier before it branches —
// the structural guarantee real compilers provide — because
// unstructured fragmentation lets warp fragments re-arm reused barrier
// indices at skewed program points and cross-block at BSYNC. TRACE
// stays excluded — RT-core state needs coordinated setup the generator
// doesn't model.
func fuzzProgram(data []byte) (*isa.Program, error) {
	b := isa.NewBuilder("fuzzrun")
	// Fixed prologue: r0 = lane, r1 = global tid, r2 = private output
	// slot (never loaded by other threads), r3 = shared read-only table.
	b.S2R(0, isa.SRLaneID)
	b.S2R(1, isa.SRThreadID)
	b.Shl(2, 1, 2)
	b.Movi(4, 0x0080_0000)
	b.Iadd(2, 2, 4)
	b.Movi(3, 0x1000)

	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		c := data[pos]
		pos++
		return c
	}
	// reg picks from the r4..r11 working set the prologue leaves free.
	reg := func(c byte) uint8 { return 4 + c%8 }

	type region struct {
		bar  uint8
		join string
	}
	var open []region
	labels := 0
	sb := 0
	for op := 0; op < 64 && pos < len(data); op++ {
		c := next()
		switch c % 12 {
		case 0:
			b.Iadd(reg(next()), reg(next()), reg(next()))
		case 1:
			b.Imuli(reg(next()), reg(next()), int32(next())%64)
		case 2:
			b.Ffma(reg(next()), reg(next()), reg(next()), reg(next()))
		case 3: // shared-table load with a dependent consumer
			rd := reg(next())
			b.Ldg(rd, 3, int32(next()%64)*4, sb)
			b.Iadd(reg(next()), rd, rd).Req(sb)
			sb = (sb + 1) % isa.NumBarriers
		case 4: // texture-path load with a dependent consumer
			rd := reg(next())
			b.Tld(rd, 3, int32(next()%64)*4, sb)
			b.Fadd(reg(next()), rd, rd).Req(sb)
			sb = (sb + 1) % isa.NumBarriers
		case 5: // store to the thread's private slot
			b.Stg(2, 0, reg(next()))
		case 6: // open a lane-predicated divergence region
			if len(open) >= 4 {
				break
			}
			bar := uint8(len(open))
			join := fmt.Sprintf("join%d", labels)
			labels++
			pred := c % 3
			b.Isetpi(isa.CmpLT, pred, 0, int32(next()%33))
			b.Bssy(bar, join)
			b.BraP(pred, true, join)
			open = append(open, region{bar: bar, join: join})
		case 7: // close the innermost divergence region
			if len(open) == 0 {
				break
			}
			r := open[len(open)-1]
			open = open[:len(open)-1]
			b.Label(r.join)
			b.Bsync(r.bar)
		case 8: // bounded loop with lane-divergent trip counts
			loop := fmt.Sprintf("loop%d", labels)
			ctr := reg(next())
			b.Movi(ctr, 3)
			if len(open) >= 4 {
				// No convergence barrier free: emit the loop with a
				// uniform trip count. Divergent trip counts are only
				// legal under an armed barrier — a splinter that
				// outlives the loop leaves the warp permanently
				// fragmented, and fragments that later re-arm a reused
				// barrier index at skewed points cross-block at BSYNC
				// (the structural guarantee real compilers provide by
				// emitting BSSY before every divergent branch).
				labels++
				b.Iaddi(ctr, ctr, int32(next()%3)+1)
				b.Label(loop)
				b.Iaddi(ctr, ctr, -1)
				b.Isetpi(isa.CmpGT, 3, ctr, 0)
				b.BraP(3, false, loop)
				break
			}
			bar := uint8(len(open))
			join := fmt.Sprintf("loopjoin%d", labels)
			labels++
			b.Iand(ctr, 0, ctr)
			b.Iaddi(ctr, ctr, int32(next()%3)+1)
			b.Bssy(bar, join)
			b.Label(loop)
			b.Iaddi(ctr, ctr, -1)
			b.Isetpi(isa.CmpGT, 3, ctr, 0)
			b.BraP(3, false, loop)
			b.Label(join)
			b.Bsync(bar)
		case 9:
			b.Yield()
		case 10: // BRX jump-table dispatch over reconverging case bodies
			if len(open) >= 4 {
				break
			}
			ways := 2 << (next() % 2) // 2 or 4 targets (power of two for IAND)
			bar := uint8(len(open))
			join := fmt.Sprintf("brxjoin%d", labels)
			labels++
			sel := reg(next())
			b.Movi(sel, int32(ways-1))
			b.Iand(sel, 0, sel) // lane & (ways-1): interleaved lanes per target
			b.Bssy(bar, join)
			const caseLen = 3 // IADDI + BRA + NOP pad
			b.Imuli(sel, sel, caseLen)
			caseBase := b.PC() + 2 // past the IADDI and BRX below
			b.Iaddi(sel, sel, int32(caseBase))
			b.Brx(sel)
			for wy := 0; wy < ways; wy++ {
				b.Iaddi(reg(byte(wy)), 0, int32(wy*7+1))
				b.Bra(join)
				b.Nop() // pad to caseLen
			}
			b.Label(join)
			b.Bsync(bar)
		case 11: // BFS-style data-dependent loop with frontier-empty pre-test
			if len(open) >= 4 {
				break
			}
			bar := uint8(len(open))
			join := fmt.Sprintf("ddjoin%d", labels)
			loop := fmt.Sprintf("ddloop%d", labels)
			labels++
			// Per-lane trip count from memory: lane & loaded value, masked
			// to 0..3, so counts are data-dependent, lane-divergent, and
			// often zero (the frontier-empty boundary).
			cnt := reg(next())
			b.Ldg(cnt, 3, int32(next()%64)*4, sb)
			b.Iand(cnt, 0, cnt).Req(sb)
			sb = (sb + 1) % isa.NumBarriers
			b.Shl(cnt, cnt, 30)
			b.Shr(cnt, cnt, 30)
			b.Isetpi(isa.CmpGT, 4, cnt, 0)
			b.Bssy(bar, join)
			b.BraP(4, true, join) // empty-frontier lanes skip the walk
			b.Label(loop)
			b.Iaddi(cnt, cnt, -1)
			b.Isetpi(isa.CmpGT, 4, cnt, 0)
			b.BraP(4, false, loop)
			b.Label(join)
			b.Bsync(bar)
		}
	}
	for len(open) > 0 {
		r := open[len(open)-1]
		open = open[:len(open)-1]
		b.Label(r.join)
		b.Bsync(r.bar)
	}
	return b.Exit().Build()
}

// fuzzMemory builds the deterministic shared table generated loads
// read from.
func fuzzMemory() *mem.Memory {
	m := mem.NewMemory()
	for i := uint64(0); i < 64; i++ {
		m.Store(0x1000+4*i, uint32(i*2654435761))
	}
	return m
}

// FuzzRun feeds generated kernels to the whole-device simulator and
// checks the properties no input may break: the simulator never
// panics; a parallel run is bit-identical to a sequential run of the
// same kernel (counters, final memory image, and error outcome), and
// so is the run loop with its blocks keeping their own time to the
// checked lock-step loop (Config.Check); and the stepped regime
// (Compiled=false) is bit-identical to the fast-forward regime — all
// with SI off and on. Run errors themselves (e.g. the tightened cycle
// budget) are tolerated as long as every variant agrees.
func FuzzRun(f *testing.F) {
	old := MaxCycles
	MaxCycles = fuzzMaxCycles
	f.Cleanup(func() { MaxCycles = old })

	f.Add([]byte{2, 0})                          // tiny straight-line kernel
	f.Add([]byte{16, 6, 9, 3, 1, 2, 7, 5, 0})    // divergence region with mixed body
	f.Add([]byte{7, 8, 4, 4, 26, 17, 6, 20, 16}) // loop plus memory traffic
	f.Add([]byte{
		31, 6, 9, 6, 3, 3, 1, 8, 2, 2, 7, 4, 4, 7, 5, 5, // nested regions, loop, stores
	})
	f.Add([]byte{32, 10, 0, 1, 3, 2, 2, 10, 1, 0, 5, 1}) // BRX dispatches around loads

	// Seeds stressing fast-forward boundary conditions.
	f.Add([]byte{ // long straight-line ALU run (maximal FF windows)
		9, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2,
	})
	f.Add([]byte{18, 6, 1, 7, 6, 2, 7, 9})    // blocks ending in BSYNC, plus a YIELD
	f.Add([]byte{40, 0, 3, 5, 3, 9, 0, 4, 1}) // scoreboard hazards mid-block
	f.Add([]byte{                             // deep nesting + BRX scatter: TST pressure under the capped-SI config
		255, 6, 6, 6, 6, 3, 10, 7, 7, 7, 7, 5,
	})

	// Seeds stressing the scheduler-policy zoo.
	f.Add([]byte{ // many warps + back-to-back scoreboard chains: GTO keeps
		// re-picking the oldest warp while younger ones sit load-stalled
		// (the starvation edge LRR's circular scan never exhibits)
		0x4b, 3, 1, 3, 2, 3, 5, 3, 0, 3, 4, 3, 1, 3, 2,
	})
	f.Add([]byte{ // data-dependent loops (c%12==11): frontier-empty lanes
		// skip past the walk while sibling lanes iterate
		0x26, 11, 0, 4, 23, 8, 2, 11, 1, 5,
	})
	f.Add([]byte{ // empty-frontier boundary back to back with divergence regions
		0x3a, 11, 2, 63, 6, 1, 11, 3, 0, 7, 5,
	})

	// tinyTST caps the TST at 2 entries so generated divergence can
	// overflow it (the overflow path leaves the subwarp waiting in
	// place, which fast-forward must reproduce cycle-exactly).
	tinyTST := defaultConfig().WithSI(true, config.TriggerAnyStalled)
	tinyTST.SI.MaxSubwarps = 2

	// The scheduler-policy zoo: GTO's oldest-first fallback can starve
	// young ready warps behind a long-latency veteran, and the WaSP-style
	// phase policy deliberately runs its leader group ahead; both must
	// stay deterministic and engine-identical like LRR.
	gto := defaultConfig()
	gto.SchedPolicy = config.SchedGTO
	waspSI := defaultConfig().WithSI(true, config.TriggerHalfStalled)
	waspSI.SchedPolicy = config.SchedWaSP

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatalf("generator produced an invalid program: %v", err)
		}
		warps := int(data[0])%12 + 1
		wpc := int(data[0]>>4)%4 + 1

		k := &sm.Kernel{
			Program:     prog,
			NumWarps:    warps,
			WarpsPerCTA: wpc,
			Memory:      fuzzMemory(),
		}
		run := func(cfg config.Config, workers int) (Result, error) {
			return RunWorkers(cfg, k, workers)
		}
		for _, cfg := range []config.Config{
			defaultConfig(),
			defaultConfig().WithSI(true, config.TriggerHalfStalled),
			tinyTST,
			gto,
			waspSI,
		} {
			seqRes, seqErr := run(cfg, 1)
			// The parallel run is also the one without Config.Check: its
			// blocks keep their own time, where the other two are stepped
			// in lock-step with every excused step's prediction asserted.
			par := cfg
			par.Check = false
			parRes, parErr := run(par, 4)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("error outcomes diverge: sequential %v, parallel %v", seqErr, parErr)
			}
			interp := cfg
			interp.Compiled = false
			intRes, intErr := run(interp, 1)
			for _, err := range []error{seqErr, parErr, intErr} {
				// A budget error may repeat in every variant; a panic
				// (the divergence check's included) may not happen at all.
				if pe := (*PanicError)(nil); errors.As(err, &pe) {
					t.Fatalf("the simulator panicked: %v\n%s", pe.Value, pe.Stack)
				}
			}
			if (seqErr == nil) != (intErr == nil) {
				t.Fatalf("error outcomes diverge: compiled %v, interpreted %v", seqErr, intErr)
			}
			if seqErr != nil {
				continue
			}
			seqFP, parFP, intFP := seqRes.Memory.Fingerprint(), parRes.Memory.Fingerprint(), intRes.Memory.Fingerprint()
			if seqRes.Counters != parRes.Counters {
				t.Fatalf("counters diverge:\n  sequential %+v\n  parallel   %+v",
					seqRes.Counters, parRes.Counters)
			}
			if seqFP != parFP {
				t.Fatalf("final memory images diverge: sequential %#x, parallel %#x", seqFP, parFP)
			}
			if seqRes.Counters != intRes.Counters {
				t.Fatalf("engines diverge:\n  compiled    %+v\n  interpreted %+v",
					seqRes.Counters, intRes.Counters)
			}
			if seqFP != intFP {
				t.Fatalf("engine memory images diverge: compiled %#x, interpreted %#x",
					seqFP, intFP)
			}
		}
	})
}
