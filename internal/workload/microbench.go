// Package workload generates the kernels the paper evaluates: the
// Fig. 11 CUDA microbenchmark that splinters a warp into a configurable
// number of subwarps with guaranteed exposed load-to-use stalls, and
// synthetic raytracing megakernels standing in for the ten game traces
// of Table II, with divergence driven by real BVH traversals.
package workload

import (
	"fmt"

	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
)

// MicrobenchParams configures the Fig. 11 microbenchmark.
type MicrobenchParams struct {
	// SubwarpSize splits each warp into 32/SubwarpSize subwarps
	// (the paper sweeps 16, 8, 4, 2, 1 for divergence factors
	// 2, 4, 8, 16, 32). Must be a power of two in [1, 32].
	SubwarpSize int
	// Iterations is the ITERATIONS loop count.
	Iterations int
	// AccessesPerSubwarp is the serial loads each subwarp performs per
	// iteration (the gen_ld_to_use_stalls reduction length).
	AccessesPerSubwarp int
	// CaseInstrs pads each switch case to this many instructions,
	// setting the instruction footprint: 32 cases of the default 84
	// instructions at 8 B each (21 KB) exceed a 16 KB L0, reproducing
	// the paper's fetch-stall taper at 32-way divergence, while 16 cases
	// (10.5 KB) still fit.
	CaseInstrs int
	// NumWarps is the total warps launched (the paper's study isolates
	// one warp per processing block).
	NumWarps int
	// LineBytes must match the simulated cache line size; address
	// strides are chosen so every access is a compulsory miss.
	LineBytes int
}

// DefaultMicrobench returns the parameters used for the Table III
// reproduction at the given subwarp size.
func DefaultMicrobench(subwarpSize int) MicrobenchParams {
	return MicrobenchParams{
		SubwarpSize:        subwarpSize,
		Iterations:         64,
		AccessesPerSubwarp: 3,
		CaseInstrs:         84,
		NumWarps:           8, // one per processing block on the 2-SM default
		LineBytes:          128,
	}
}

// Validate reports the first invalid parameter.
func (p MicrobenchParams) Validate() error {
	switch {
	case p.SubwarpSize < 1 || p.SubwarpSize > 32 || 32%p.SubwarpSize != 0 ||
		p.SubwarpSize&(p.SubwarpSize-1) != 0:
		return fmt.Errorf("workload: SubwarpSize %d must be a power of two dividing 32", p.SubwarpSize)
	case p.Iterations <= 0:
		return fmt.Errorf("workload: Iterations must be positive")
	case p.AccessesPerSubwarp <= 0:
		return fmt.Errorf("workload: AccessesPerSubwarp must be positive")
	case p.CaseInstrs < 4*p.AccessesPerSubwarp+2:
		return fmt.Errorf("workload: CaseInstrs %d too small for %d accesses",
			p.CaseInstrs, p.AccessesPerSubwarp)
	case p.NumWarps <= 0:
		return fmt.Errorf("workload: NumWarps must be positive")
	case p.LineBytes <= 0:
		return fmt.Errorf("workload: LineBytes must be positive")
	}
	return nil
}

// DivergenceFactor returns 32/SubwarpSize, the number of subwarps each
// warp splinters into.
func (p MicrobenchParams) DivergenceFactor() int { return 32 / p.SubwarpSize }

// Microbench assembles the microbenchmark kernel.
//
// Register map: R0 lane, R1 global tid, R2 subwarpid, R3 lane-in-
// subwarp, R4 iteration, R5 BRX target, R6 per-iteration line index,
// R7 load address, R8 loaded value, R9 accumulator.
func Microbench(p MicrobenchParams) (*sm.Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ways := p.DivergenceFactor()
	log2ss := 0
	for 1<<log2ss != p.SubwarpSize {
		log2ss++
	}

	const dataBase = 0x0100_0000
	b := isa.NewBuilder(fmt.Sprintf("microbench-d%d", ways))
	b.SetRegsPerThread(32)

	b.S2R(0, isa.SRLaneID)
	b.S2R(1, isa.SRThreadID)
	b.Shr(2, 0, int32(log2ss)) // subwarpid = lane >> log2(ss)
	b.Movi(10, int32(p.SubwarpSize-1))
	b.Iand(3, 0, 10) // lane within subwarp
	b.Shl(3, 3, 2)   // *4: word offset within line
	b.Movi(4, 0)     // iteration

	b.Label("loop")
	// Distinct line per (warp, subwarp, iteration, access): compulsory
	// misses every iteration, as the CUDA benchmark guarantees.
	// lineIndex = ((tid>>5)*ways + subwarpid)*iters + iter
	b.Shr(6, 1, 5) // warp index = tid >> 5
	b.Imuli(6, 6, int32(ways))
	b.Iadd(6, 6, 2)
	b.Imuli(6, 6, int32(p.Iterations))
	b.Iadd(6, 6, 4)
	b.Imuli(6, 6, int32(p.AccessesPerSubwarp)) // first access's line
	// BRX target = caseBase + subwarpid*CaseInstrs.
	b.Bssy(0, "converge")
	b.Imuli(5, 2, int32(p.CaseInstrs))
	caseBase := b.PC() + 2
	b.Iaddi(5, 5, int32(caseBase))
	b.Brx(5)

	// One switch case per subwarp id; the bodies are identical code at
	// distinct addresses, like the inlined gen_ld_to_use_stalls calls.
	for way := 0; way < ways; way++ {
		start := b.PC()
		for a := 0; a < p.AccessesPerSubwarp; a++ {
			b.Iaddi(7, 6, int32(a))           // line index for access a
			b.Imuli(7, 7, int32(p.LineBytes)) // byte address of line
			b.Iadd(7, 7, 3)                   // + word offset
			b.Iaddi(7, 7, dataBase)
			sb := a % 6
			b.Ldg(8, 7, 0, sb)
			b.Iadd(9, 9, 8).Req(sb) // serial reduction: load-to-use
		}
		for b.PC()-start < p.CaseInstrs-1 {
			b.Fmul(11, 9, 9) // padding: sets the per-case I-footprint
		}
		b.Bra("converge")
		if got := b.PC() - start; got != p.CaseInstrs {
			return nil, fmt.Errorf("workload: case %d is %d instrs, want %d", way, got, p.CaseInstrs)
		}
	}

	b.Label("converge")
	b.Bsync(0) // __syncwarp()
	b.Iaddi(4, 4, 1)
	b.Isetpi(isa.CmpLT, 0, 4, int32(p.Iterations))
	b.BraP(0, false, "loop")
	b.Exit()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &sm.Kernel{
		Program:     prog,
		NumWarps:    p.NumWarps,
		WarpsPerCTA: 1,
		Memory:      mem.NewMemory(),
	}, nil
}
