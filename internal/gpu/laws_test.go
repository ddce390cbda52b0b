package gpu

import (
	"fmt"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
)

// Timing laws for instruction fetch, derived by hand from the front
// end's description and checked exactly. A warp that moves to an icache
// line no one has fetched misses the L0I and the L1I and issues from it
// P = L0MissPenalty + L1IMissPenalty cycles later; every other cycle it
// issues one op. The laws hold in every scheduler policy, for any worker
// count, with Config.Check on and off, and in both regimes.

// lawPenalties are the (L0MissPenalty, L1IMissPenalty) pairs the laws
// are checked at: equal penalties of 0, 20 and 37, and the pairs around
// an 8-op line (P = 7, 8, 9), where a trailing warp reaches a line one
// cycle after, at, or one cycle before its fill.
var lawPenalties = [][2]int{{0, 0}, {20, 20}, {37, 37}, {3, 4}, {4, 4}, {4, 5}}

// lawRun runs kernel on two single-block SMs, so that a law is checked
// with workers running SMs side by side, under every policy, worker
// count, Check setting and regime, and requires one Cycles value.
func lawRun(t *testing.T, name string, prog *isa.Program, warpsPerBlock int, l0, l1 int) int64 {
	t.Helper()
	k := &sm.Kernel{Program: prog, NumWarps: 2 * warpsPerBlock, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	var cycles int64 = -1
	for _, pol := range schedPolicies() {
		for _, workers := range []int{1, 4} {
			for _, check := range []bool{false, true} {
				for _, compiled := range []bool{true, false} {
					cfg := config.Default()
					cfg.NumSMs, cfg.BlocksPerSM = 2, 1
					cfg.L0MissPenalty, cfg.L1IMissPenalty = l0, l1
					cfg.SchedPolicy, cfg.Check, cfg.Compiled = pol, check, compiled
					res, err := RunWorkers(cfg, k, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if cycles >= 0 && res.Counters.Cycles != cycles {
						t.Fatalf("%s: %v workers=%d check=%v compiled=%v took %d cycles, another variant %d",
							name, pol, workers, check, compiled, res.Counters.Cycles, cycles)
					}
					cycles = res.Counters.Cycles
				}
			}
		}
	}
	return cycles
}

// lawLine is the straight line of n+2 ops the laws run: S2R, n IADDIs,
// EXIT. With groups > 0 it is split into groups of that many ops, each
// but the last ending in the megakernel's line hop: a BRA over a NOP
// gap to the next line's first op. Group i then runs on line i.
func lawLine(n, group int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("line%d/%d", n, group))
	per := config.Default().InstrsPerLine()
	for i := 0; i < n+2; i++ {
		if group > 0 && i > 0 && i%group == 0 {
			label := fmt.Sprintf("line%d", i/group)
			b.Bra(label)
			for b.PC()%per != 0 {
				b.Nop()
			}
			b.Label(label)
		}
		switch i {
		case 0:
			b.S2R(0, isa.SRLaneID)
		case n + 1:
			b.Exit()
		default:
			b.Iaddi(1, 0, int32(i))
		}
	}
	return b.MustBuild()
}

// TestStraightLineIcacheLaw: one warp, n+2 ops over ⌈(n+2)/16⌉ lines,
// each missed once: Cycles = n+2 + lines × P. At penalties 20/20 that
// is 43, 52, 382 and 3 522 cycles for n = 1, 10, 100 and 1 000.
func TestStraightLineIcacheLaw(t *testing.T) {
	per := config.Default().InstrsPerLine()
	for _, pen := range lawPenalties {
		for _, n := range []int{1, 10, 100, 1000} {
			ops := int64(n + 2)
			lines := (ops + int64(per) - 1) / int64(per)
			want := ops + lines*int64(pen[0]+pen[1])
			name := fmt.Sprintf("n=%d penalties=%v", n, pen)
			if got := lawRun(t, name, lawLine(n, 0), 1, pen[0], pen[1]); got != want {
				t.Errorf("%s: Cycles = %d, want %d", name, got, want)
			}
		}
	}
}

// TestLineHopIcacheLaw is the straight line's branchy twin: the same
// n+2 ops in groups of g, one group a line, joined by L-1 line hops, so
// a warp issues X = n+2 + L-1 ops, E = g+1 on each line but the last
// and r on the last.
//
//   - One warp misses every line once: Cycles = X + L×P.
//   - Two warps on one block, P ≥ 1: both wait for line 0 until P; the
//     warp that reaches a line first misses it and the other issues the
//     line it left, so each line but the last starts E + max(P, E)
//     cycles after the one before, led by the warp that issued last.
//     Where P ≤ E the trailing warp's run crosses the hop into the line
//     its partner fetched. Both warps issue the last line:
//     Cycles = P + (L-1)(E + max(P, E)) + 2r.
//   - Two warps, P = 0: no fetch stalls, so Cycles = 2X, and the
//     second warp runs through lines the first left resident.
func TestLineHopIcacheLaw(t *testing.T) {
	for _, pen := range lawPenalties {
		p := int64(pen[0] + pen[1])
		for _, g := range []int{3, 7} {
			for _, n := range []int{1, 10, 100} {
				ops := int64(n + 2)
				lines := (ops + int64(g) - 1) / int64(g)
				x, e, r := ops+lines-1, int64(g+1), ops-(lines-1)*int64(g)
				prog := lawLine(n, g)

				name := fmt.Sprintf("one warp n=%d g=%d penalties=%v", n, g, pen)
				if got, want := lawRun(t, name, prog, 1, pen[0], pen[1]), x+lines*p; got != want {
					t.Errorf("%s: Cycles = %d, want %d", name, got, want)
				}

				want := 2 * x
				if p > 0 {
					want = p + (lines-1)*(e+max(p, e)) + 2*r
				}
				name = fmt.Sprintf("two warps n=%d g=%d penalties=%v", n, g, pen)
				if got := lawRun(t, name, prog, 2, pen[0], pen[1]); got != want {
					t.Errorf("%s: Cycles = %d, want %d", name, got, want)
				}
			}
		}
	}
}
