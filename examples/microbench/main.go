// Microbench: reproduce the Table III divergence scaling study through
// the public API — sweep the microbenchmark's SUBWARP_SIZE and measure
// Subwarp Interleaving's speedup at each divergence factor.
//
//	go run ./examples/microbench
package main

import (
	"fmt"
	"log"

	"subwarpsim"
)

func main() {
	baseline := subwarpsim.DefaultConfig()
	si := baseline.WithSI(false, subwarpsim.TriggerAnyStalled) // switch-on-stall

	fmt.Println("SUBWARP_SIZE  divergence  baseline-cycles  SI-cycles  speedup")
	for _, subwarpSize := range []int{32, 16, 8, 4, 2, 1} {
		params := subwarpsim.DefaultMicrobenchmark(subwarpSize)
		kernel, err := subwarpsim.BuildMicrobenchmark(params)
		if err != nil {
			log.Fatal(err)
		}

		base, fast, speedup, err := subwarpsim.Compare(baseline, si, kernel)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%12d  %10d  %15d  %9d  %6.2fx\n",
			subwarpSize, params.DivergenceFactor(),
			base.Counters.Cycles, fast.Counters.Cycles, 1+speedup)
	}
	fmt.Println("\nexpect near-linear scaling that tapers at 32-way divergence,")
	fmt.Println("where the 32 switch cases overflow the 16KB L0 instruction cache")
	fmt.Println("(Table III reports 1.98/3.95/7.84/15.22/12.66x on the paper's simulator)")
}
