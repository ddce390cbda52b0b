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

// Table3 regenerates the microbenchmark scaling study: SI speedup over
// baseline as the warp splinters into 2..32 subwarps. Speedups should
// scale near-linearly up to 16-way divergence and taper at 32-way as
// instruction fetch streams start thrashing the L0/L1 instruction
// caches.
func Table3(o Options) (*Report, error) {
	base := config.Default()
	si := base.WithSI(false, config.TriggerAnyStalled)

	subwarpSizes := []int{16, 8, 4, 2, 1}
	var jobs []job
	for _, ss := range subwarpSizes {
		p := workload.DefaultMicrobench(ss)
		if o.Quick {
			p.Iterations = 3
		}
		k, err := workload.Microbench(p)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			job{key: fmt.Sprintf("d%d/base", p.DivergenceFactor()), cfg: base, kernel: k},
			job{key: fmt.Sprintf("d%d/si", p.DivergenceFactor()), cfg: si, kernel: k},
		)
	}
	results, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Microbenchmark SI speedup vs divergence factor (L1 miss latency 600)",
		"SUBWARP_SIZE", "Divergence factor", "Speedup(x)", "Paper(x)", "Fetch-stall share (SI)")
	values := make(map[string]float64)
	for _, ss := range subwarpSizes {
		d := 32 / ss
		b := results[fmt.Sprintf("d%d/base", d)]
		s := results[fmt.Sprintf("d%d/si", d)]
		speedup := 1 + stats.Speedup(b.Counters, s.Counters)
		values[fmt.Sprintf("speedup_%d", d)] = speedup
		values[fmt.Sprintf("fetch_%d", d)] = s.Derived().FetchStallFrac
		tbl.AddRow(fmt.Sprint(ss), fmt.Sprint(d),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.2f", table3Paper[d]),
			stats.Percent(s.Derived().FetchStallFrac))
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
	}, nil
}
