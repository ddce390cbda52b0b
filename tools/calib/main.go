// Command calib reports each application profile's baseline
// characterisation (Fig. 3) and its Both,N>=0.5 speedup (Fig. 12a)
// against the paper's reference values.
package main

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// paper reference: Fig 3 (total%, div%) and Fig 12a Both,N>=0.5 (%).
var ref = map[string][3]float64{
	"AV1": {42, 12, 4}, "AV2": {28, 10, 3}, "BFV1": {50, 40, 15},
	"BFV2": {52, 45, 20}, "Coll1": {70, 12, 1}, "Coll2": {72, 18, 2},
	"Ctrl": {38, 16, 5}, "DDGI": {45, 22, 6}, "MC": {30, 12, 3}, "MW": {42, 24, 8},
}

func main() {
	fmt.Println("app      stall%(ref)  div%(ref)   Both05%(ref)  miss%")
	var sps []float64
	for _, app := range workload.Apps() {
		k, err := workload.Megakernel(app)
		must(err)
		base, err := gpu.Run(config.Default(), k)
		must(err)
		s2, err := gpu.Run(config.Default().WithSI(true, config.TriggerHalfStalled), k)
		must(err)
		sp := stats.Speedup(base.Counters, s2.Counters)
		d := base.Derived()
		r := ref[app.Name]
		fmt.Printf("%-8s %5.1f (%3.0f)  %5.1f (%3.0f)  %6.1f (%4.0f)  %5.1f\n",
			app.Name, d.ExposedStallFrac*100, r[0], d.DivergentStallFrac*100, r[1],
			sp*100, r[2], d.L1DMissRate*100)
		sps = append(sps, sp)
	}
	fmt.Printf("mean Both,N>=0.5: %.1f%% (paper: 6.3%%)\n", stats.MeanSpeedup(sps)*100)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
