package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// Fig3 regenerates the baseline characterisation: total exposed
// load-to-use stalls and exposed stalls in divergent code blocks, both
// normalized to kernel runtime, per application trace.
func Fig3(o Options) (*Report, error) {
	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, a := range apps {
		jobs = append(jobs, job{key: a.name, cfg: config.Default(), kernel: a.kernel})
	}
	results, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Exposed load-to-use stalls normalized to kernel time (baseline, 600-cycle L1 miss)",
		"Trace", "Total stalls", "Divergent stalls", "Divergent share")
	values := make(map[string]float64)
	var totSum, divSum float64
	for _, name := range workload.AppNames() {
		d := results[name].Derived()
		tbl.AddRow(name,
			stats.Percent(d.ExposedStallFrac),
			stats.Percent(d.DivergentStallFrac),
			stats.Percent(safeDiv(d.DivergentStallFrac, d.ExposedStallFrac)))
		values[name+"/total"] = d.ExposedStallFrac
		values[name+"/divergent"] = d.DivergentStallFrac
		totSum += d.ExposedStallFrac
		divSum += d.DivergentStallFrac
	}
	n := float64(len(workload.AppNames()))
	values["mean/total"] = totSum / n
	values["mean/divergent"] = divSum / n
	tbl.AddRow("mean", stats.Percent(totSum/n), stats.Percent(divSum/n),
		stats.Percent(safeDiv(divSum, totSum)))

	return &Report{
		ID:    "fig3",
		Title: "Characteristics favoring Subwarp Interleaving",
		Paper: "raytracing kernels spend a large fraction of runtime in exposed load-to-use stalls " +
			"(roughly 25-75% per trace), with a significant share inside divergent code blocks; " +
			"BFV1/BFV2 are divergent-stall dominated while Coll1/Coll2 stall mostly in convergent code",
		Tables: []*stats.Table{tbl},
		Values: values,
		Notes: []string{
			fmt.Sprintf("divergent share spans %s..%s across traces",
				stats.Percent(minShare(values)), stats.Percent(maxShare(values))),
		},
	}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minShare(values map[string]float64) float64 {
	m := 1.0
	for _, name := range workload.AppNames() {
		if s := safeDiv(values[name+"/divergent"], values[name+"/total"]); s < m {
			m = s
		}
	}
	return m
}

func maxShare(values map[string]float64) float64 {
	m := 0.0
	for _, name := range workload.AppNames() {
		if s := safeDiv(values[name+"/divergent"], values[name+"/total"]); s > m {
			m = s
		}
	}
	return m
}
