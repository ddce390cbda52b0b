package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// Order runs the subwarp activation-order ablation the paper's
// Discussion proposes (Section VI, third limiter): the order in which a
// processing block encounters subwarps matters, and randomizing the
// execution order of divergent paths "improves the odds of creating a
// profitable dynamic subwarp scheduling order". It compares SI's mean
// speedup under each activation-order policy.
func Order(o Options) (*Report, error) {
	orders := []config.SubwarpOrder{
		config.OrderTakenFirst,
		config.OrderFallthroughFirst,
		config.OrderLargestFirst,
		config.OrderRandom,
	}

	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Mean SI speedup (Both,N>=0.5) by divergent-path activation order",
		"Order", "Mean speedup")
	values := make(map[string]float64)
	for _, ord := range orders {
		cfg := config.Default()
		cfg.Order = ord
		per, err := appSweepBest(apps, cfg, o)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, name := range workload.AppNames() {
			sum += per[name]
		}
		m := sum / float64(len(workload.AppNames()))
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
	}, nil
}

// Yield runs the subwarp-yield threshold ablation: how many outstanding
// long-latency operations an active subwarp issues before eagerly
// yielding (Section III-B describes the threshold as configurable).
func Yield(o Options) (*Report, error) {
	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	thresholds := []int{1, 2, 4, 8}
	tbl := stats.NewTable("Mean SI speedup (Both,N>=0.5) by yield threshold",
		"Threshold", "Mean speedup")
	values := make(map[string]float64)

	for _, th := range thresholds {
		cfg := bestSingle(config.Default())
		cfg.SI.YieldThreshold = th
		var jobs []job
		for _, a := range apps {
			jobs = append(jobs,
				job{key: a.name + "/base", cfg: config.Default(), kernel: a.kernel},
				job{key: a.name + "/si", cfg: cfg, kernel: a.kernel},
			)
		}
		results, err := runJobs(o, jobs)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, name := range workload.AppNames() {
			sum += stats.Speedup(results[name+"/base"].Counters, results[name+"/si"].Counters)
		}
		m := sum / float64(len(workload.AppNames()))
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
	}, nil
}
