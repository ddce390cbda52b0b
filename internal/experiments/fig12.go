package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// fig12aPaper holds the paper's per-trace Both,N>=0.5 speedups read
// from Fig. 12a (approximate; the paper reports the 6.3% mean exactly).
var fig12aPaper = map[string]float64{
	"AV1": 0.04, "AV2": 0.03, "BFV1": 0.15, "BFV2": 0.20, "Coll1": 0.01,
	"Coll2": 0.02, "Ctrl": 0.05, "DDGI": 0.06, "MC": 0.03, "MW": 0.08,
}

// fig12a regenerates the per-application policy sweep at a fixed
// 600-cycle L1 miss latency: speedup of each of the six SI
// configurations over baseline, plus the per-application BestOf.
func fig12a(p *plan) func() *Report {
	rows := p.sweep(config.Default())
	return func() *Report {
		header := []string{"Trace"}
		for _, pol := range policies() {
			header = append(header, pol.label)
		}
		header = append(header, "BestOf", "Paper(Both,N>=0.5)")
		tbl := stats.NewTable("Per-application SI speedup (L1 miss latency 600)", header...)

		values := make(map[string]float64)
		meanByPolicy := make(map[string]float64)
		var bestOfSum float64
		for i, name := range workload.AppNames() {
			row := []string{name}
			best := 0.0
			for j, pol := range policies() {
				sp := rows[i][j].speedup()
				values[name+"/"+pol.label] = sp
				meanByPolicy[pol.label] += sp
				if sp > best {
					best = sp
				}
				row = append(row, stats.Percent(sp))
			}
			values[name+"/BestOf"] = best
			bestOfSum += best
			row = append(row, stats.Percent(best), stats.Percent(fig12aPaper[name]))
			tbl.AddRow(row...)
		}
		n := float64(len(workload.AppNames()))
		meanRow := []string{"mean"}
		bestPolicy, bestPolicyMean := "", -1.0
		for _, pol := range policies() {
			m := meanByPolicy[pol.label] / n
			values["mean/"+pol.label] = m
			meanRow = append(meanRow, stats.Percent(m))
			if m > bestPolicyMean {
				bestPolicy, bestPolicyMean = pol.label, m
			}
		}
		values["mean/BestOf"] = bestOfSum / n
		meanRow = append(meanRow, stats.Percent(bestOfSum/n), "6.3%")
		tbl.AddRow(meanRow...)

		return &Report{
			ID:    "fig12a",
			Title: "Speedup of Subwarp Interleaving per application and policy",
			Paper: "best single setting is Both,N>=0.5 at 6.3% average (up to 20% on BFV2); " +
				"average BestOf across settings is 6.6%",
			Tables: []*stats.Table{tbl},
			Values: values,
			Notes: []string{
				fmt.Sprintf("best single policy here: %s at %s mean", bestPolicy, stats.Percent(bestPolicyMean)),
			},
		}
	}
}

// fig12b regenerates the stall-reduction analysis: for the paper's best
// single configuration (Both, N>=0.5), the reduction in total exposed
// load-to-use stalls and in divergent-block exposed stalls vs baseline.
func fig12b(p *plan) func() *Report {
	runs := p.best(config.Default())
	return func() *Report {
		tbl := stats.NewTable("Reduction in exposed load-to-use stalls, Both,N>=0.5 vs baseline",
			"Trace", "Total stall reduction", "Divergent stall reduction")
		values := make(map[string]float64)
		var totSum, divSum float64
		for i, name := range workload.AppNames() {
			base, si := runs[i].base.Counters, runs[i].with.Counters
			tot := stats.Reduction(base.IdleLoadCycles, si.IdleLoadCycles)
			div := stats.Reduction(base.ExposedLoadStallsDivergent, si.ExposedLoadStallsDivergent)
			values[name+"/total"] = tot
			values[name+"/divergent"] = div
			totSum += tot
			divSum += div
			tbl.AddRow(name, stats.Percent(tot), stats.Percent(div))
		}
		n := float64(len(workload.AppNames()))
		values["mean/total"] = totSum / n
		values["mean/divergent"] = divSum / n
		tbl.AddRow("mean", stats.Percent(totSum/n), stats.Percent(divSum/n))

		return &Report{
			ID:    "fig12b",
			Title: "Reduction in exposed load-to-use stalls from SI",
			Paper: "divergent-block stalls drop 26.5% on average (total stalls ~10.5%, Section VIII); " +
				"more than half the traces see only small divergent-stall reductions",
			Tables: []*stats.Table{tbl},
			Values: values,
		}
	}
}
