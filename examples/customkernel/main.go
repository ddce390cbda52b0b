// Customkernel: write a divergent kernel in the simulator's assembly
// language, run it under the baseline and under Subwarp Interleaving,
// and verify the architectural results are identical while the timing
// improves.
//
// The kernel is the if-then-else pattern of the paper's Fig. 9: odd
// lanes reduce one buffer, even lanes another, each with a
// load-to-use stall SI can overlap.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"subwarpsim"
)

const source = `
	.regs 24
	S2R R0, SR0              // lane id
	S2R R1, SR3              // global thread id
	SHL R2, R1, 7            // one cache line per thread
	MOVI R3, 1
	IAND R3, R0, R3          // parity picks the path
	ISETP.EQ P0, R3, 0
	BSSY B0, join
	@P0 BRA even
	// odd lanes: buffer A with a dependent chain
	IADD R4, R2, 0x100000
	LDG R5, [R4+0] &wr=sb0
	IMUL R6, R5, 3 &req=sb0
	BRA join
even:
	// even lanes: buffer B
	IADD R4, R2, 0x200000
	LDG R5, [R4+0] &wr=sb1
	IMUL R6, R5, 5 &req=sb1
	BRA join
join:
	BSYNC B0
	SHL R7, R1, 2
	IADD R7, R7, 0x300000    // actually MOVI+IADD; immediate form
	STG [R7+0], R6
	EXIT
`

func main() {
	prog, err := subwarpsim.Assemble("parity", source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %q: %d instructions\n\n", prog.Name, prog.Len())

	memory := subwarpsim.NewMemory()
	// Seed the two input buffers with known values.
	for tid := 0; tid < 8*32; tid++ {
		memory.Store(uint64(0x100000+tid*128), uint32(10+tid))
		memory.Store(uint64(0x200000+tid*128), uint32(20+tid))
	}
	kernel := &subwarpsim.Kernel{
		Program:     prog,
		NumWarps:    8,
		WarpsPerCTA: 1,
		Memory:      memory,
	}
	// Each run returns its own final image in Result.Memory; the
	// kernel's seeded image is read, never written.
	base, fast, speedup, err := subwarpsim.Compare(subwarpsim.DefaultConfig(),
		subwarpsim.DefaultConfig().WithSI(true, subwarpsim.TriggerAllStalled), kernel)
	if err != nil {
		log.Fatal(err)
	}

	// The architectural results must match bit for bit.
	mismatches := 0
	for tid := 0; tid < 8*32; tid++ {
		addr := uint64(0x300000 + tid*4)
		if base.Memory.Load(addr) != fast.Memory.Load(addr) {
			mismatches++
		}
	}
	fmt.Printf("baseline: %5d cycles\n", base.Counters.Cycles)
	fmt.Printf("with SI : %5d cycles (%.1f%% faster, %d subwarp switches)\n",
		fast.Counters.Cycles, speedup*100,
		fast.Counters.SubwarpSelects)
	fmt.Printf("outputs : %d mismatches across %d threads\n", mismatches, 8*32)

	// Spot-check one thread's result: lane 1 of warp 0 is odd, so it
	// loaded buffer A (10+tid) and multiplied by 3.
	got := fast.Memory.Load(0x300000 + 1*4)
	fmt.Printf("thread 1: %d (want %d)\n", got, (10+1)*3)
}
