package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// table3Paper holds the paper's reported microbenchmark speedups by
// divergence factor (Table III, 600-cycle L1 miss latency).
var table3Paper = map[int]float64{2: 1.98, 4: 3.95, 8: 7.84, 16: 15.22, 32: 12.66}

// table3 regenerates the microbenchmark scaling study: SI speedup over
// baseline as the warp splinters into 2..32 subwarps. Speedups should
// scale near-linearly up to 16-way divergence and taper at 32-way as
// instruction fetch streams start thrashing the L0/L1 instruction
// caches.
func table3(p *plan) func() *Report {
	base := config.Default()
	si := base.WithSI(false, config.TriggerAnyStalled)

	subwarpSizes := []int{16, 8, 4, 2, 1}
	var runs []pair
	for _, ss := range subwarpSizes {
		mp := workload.DefaultMicrobench(ss)
		if p.o.Quick {
			mp.Iterations = 3
		}
		runs = append(runs, p.vs(p.must(workload.Microbench(mp)), base, si)...)
	}

	return func() *Report {
		tbl := stats.NewTable("Microbenchmark SI speedup vs divergence factor (L1 miss latency 600)",
			"SUBWARP_SIZE", "Divergence factor", "Speedup(x)", "Paper(x)", "Fetch-stall share (SI)")
		values := make(map[string]float64)
		for i, ss := range subwarpSizes {
			d := 32 / ss
			speedup := 1 + runs[i].speedup()
			fetch := runs[i].with.Derived().FetchStallFrac
			values[fmt.Sprintf("speedup_%d", d)] = speedup
			values[fmt.Sprintf("fetch_%d", d)] = fetch
			tbl.AddRow(fmt.Sprint(ss), fmt.Sprint(d),
				fmt.Sprintf("%.2f", speedup),
				fmt.Sprintf("%.2f", table3Paper[d]),
				stats.Percent(fetch))
		}

		return &Report{
			ID:    "table3",
			Title: "Subwarp Interleaving on the Fig. 11 microbenchmark",
			Paper: "near-linear speedups up to 16-way divergence (1.98/3.95/7.84/15.22x), " +
				"tapering to 12.66x at 32-way as instruction fetch stalls rise sharply",
			Tables: []*stats.Table{tbl},
			Values: values,
			Notes: []string{
				"the taper at 32-way divergence comes from the 32 switch cases' combined footprint " +
					"exceeding the 16KB L0 instruction cache once fetch streams interleave",
			},
		}
	}
}
