// Policysweep: explore the subwarp scheduler's policy space on one
// application — the select trigger (N > 0, N >= 0.5, N = 1), the yield
// mode (SOS vs Both), and the TST size — the knobs Sections III-C and
// V-C of the paper study.
//
//	go run ./examples/policysweep           # defaults to Ctrl
//	go run ./examples/policysweep BFV2
package main

import (
	"fmt"
	"log"
	"os"

	"subwarpsim"
)

func main() {
	name := "Ctrl"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	app, err := subwarpsim.Application(name)
	if err != nil {
		log.Fatal(err)
	}

	// Built once: every configuration below runs this same kernel.
	kernel, err := subwarpsim.BuildMegakernel(app)
	if err != nil {
		log.Fatal(err)
	}

	baseline := subwarpsim.DefaultConfig()
	base, err := subwarpsim.Run(baseline, kernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s baseline: %d cycles, %.1f%% exposed load stalls\n\n",
		app.Name, base.Counters.Cycles, base.Derived().ExposedStallFrac*100)

	triggers := []struct {
		label string
		trig  subwarpsim.SelectTrigger
	}{
		{"N=1   ", subwarpsim.TriggerAllStalled},
		{"N>=0.5", subwarpsim.TriggerHalfStalled},
		{"N>0   ", subwarpsim.TriggerAnyStalled},
	}

	fmt.Println("trigger  mode  speedup  selects  yields  switch-cycles")
	for _, tr := range triggers {
		for _, yield := range []bool{false, true} {
			cfg := baseline.WithSI(yield, tr.trig)
			res, err := subwarpsim.Run(cfg, kernel)
			if err != nil {
				log.Fatal(err)
			}
			mode := "SOS "
			if yield {
				mode = "Both"
			}
			fmt.Printf("%s   %s  %6.1f%%  %7d  %6d  %13d\n",
				tr.label, mode,
				subwarpsim.Speedup(base.Counters, res.Counters)*100,
				res.Counters.SubwarpSelects, res.Counters.SubwarpYields,
				res.Counters.SelectBusy)
		}
	}

	fmt.Println("\nTST size sensitivity (Both, N>=0.5):")
	for _, entries := range []int{2, 4, 6, 0} {
		cfg := baseline.WithSI(true, subwarpsim.TriggerHalfStalled)
		cfg.SI.MaxSubwarps = entries
		res, err := subwarpsim.Run(cfg, kernel)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d entries", entries)
		if entries == 0 {
			label = "unlimited"
		}
		fmt.Printf("  %-10s %6.1f%%  (TST overflows: %d)\n",
			label, subwarpsim.Speedup(base.Counters, res.Counters)*100,
			res.Counters.TSTOverflow)
	}
}
