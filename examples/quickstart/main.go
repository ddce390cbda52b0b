// Quickstart: simulate one raytracing trace on the baseline Turing-like
// GPU and again with Subwarp Interleaving, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"subwarpsim"
)

func main() {
	// Pick one of the paper's application traces: Battlefield V's
	// reflection pass, the divergent-stall-heavy case SI targets.
	app, err := subwarpsim.Application("BFV1")
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the Table I Turing-like configuration, which serializes
	// divergent subwarps.
	baseline := subwarpsim.DefaultConfig()

	// Subwarp Interleaving in the paper's best configuration: yield
	// after long-latency operations ("Both"), select when at least half
	// the warps are stalled (N >= 0.5).
	si := baseline.WithSI(true, subwarpsim.TriggerHalfStalled)

	// One kernel (scene, BVH, program, memory image) serves both runs:
	// a run returns its stores in the result and leaves the kernel as
	// built.
	kernel, err := subwarpsim.BuildMegakernel(app)
	if err != nil {
		log.Fatal(err)
	}
	base, fast, speedup, err := subwarpsim.Compare(baseline, si, kernel)
	if err != nil {
		log.Fatal(err)
	}

	db, df := base.Derived(), fast.Derived()
	fmt.Printf("trace: %s (%s, %s)\n", app.Name, app.App, app.Effect)
	fmt.Printf("  baseline: %7d cycles, %4.1f%% exposed load stalls (%4.1f%% divergent)\n",
		base.Counters.Cycles, db.ExposedStallFrac*100, db.DivergentStallFrac*100)
	fmt.Printf("  with SI : %7d cycles, %4.1f%% exposed load stalls (%4.1f%% divergent)\n",
		fast.Counters.Cycles, df.ExposedStallFrac*100, df.DivergentStallFrac*100)
	fmt.Printf("  speedup : %.1f%%\n", speedup*100)
	fmt.Printf("  subwarp scheduler: %d stalls demoted, %d selects, %d yields\n",
		fast.Counters.SubwarpStalls, fast.Counters.SubwarpSelects, fast.Counters.SubwarpYields)
}
