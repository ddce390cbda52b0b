package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
)

// order runs the subwarp activation-order ablation the paper's
// Discussion proposes (Section VI, third limiter): the order in which a
// processing block encounters subwarps matters, and randomizing the
// execution order of divergent paths "improves the odds of creating a
// profitable dynamic subwarp scheduling order". It compares SI's mean
// speedup under each activation-order policy.
func order(p *plan) func() *Report {
	orders := []config.SubwarpOrder{
		config.OrderTakenFirst,
		config.OrderFallthroughFirst,
		config.OrderLargestFirst,
		config.OrderRandom,
	}
	var perOrder [][]pair
	for _, ord := range orders {
		cfg := config.Default()
		cfg.Order = ord
		perOrder = append(perOrder, p.best(cfg))
	}
	return func() *Report {
		tbl := stats.NewTable("Mean SI speedup (Both,N>=0.5) by divergent-path activation order",
			"Order", "Mean speedup")
		values := make(map[string]float64)
		for i, ord := range orders {
			m := meanSpeedup(perOrder[i])
			values[ord.String()] = m
			tbl.AddRow(ord.String(), stats.Percent(m))
		}

		return &Report{
			ID:    "order",
			Title: "Ablation: divergent-path activation order (Discussion, Section VI)",
			Paper: "not quantified in the paper; it notes execution order matters and suggests " +
				"software hints or randomized order as future work",
			Tables: []*stats.Table{tbl},
			Values: values,
		}
	}
}

// yield runs the subwarp-yield threshold ablation: how many outstanding
// long-latency operations an active subwarp issues before eagerly
// yielding (Section III-B describes the threshold as configurable).
func yield(p *plan) func() *Report {
	thresholds := []int{1, 2, 4, 8}
	var perThreshold [][]pair
	for _, th := range thresholds {
		cfg := bestSingle(config.Default())
		cfg.SI.YieldThreshold = th
		var pairs []pair
		for _, k := range p.traces() {
			pairs = append(pairs, p.vs(k, config.Default(), cfg)...)
		}
		perThreshold = append(perThreshold, pairs)
	}
	return func() *Report {
		tbl := stats.NewTable("Mean SI speedup (Both,N>=0.5) by yield threshold",
			"Threshold", "Mean speedup")
		values := make(map[string]float64)
		for i, th := range thresholds {
			m := meanSpeedup(perThreshold[i])
			values[fmt.Sprintf("threshold%d", th)] = m
			tbl.AddRow(fmt.Sprint(th), stats.Percent(m))
		}

		return &Report{
			ID:    "yield",
			Title: "Ablation: subwarp-yield threshold",
			Paper: "the paper evaluates yield-after-every-long-latency-op (threshold 1) as 'Both'; " +
				"higher thresholds trade memory-level parallelism for fewer switches",
			Tables: []*stats.Table{tbl},
			Values: values,
		}
	}
}
