package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// fig13 regenerates the L1 miss latency sensitivity: mean speedup of
// every SI policy and the BestOf across latencies of 300, 600 and 900
// cycles. SI tolerates latency, so speedups grow with miss latency.
func fig13(p *plan) func() *Report {
	latencies := []int{300, 600, 900}
	var sweeps [][][]pair
	for _, lat := range latencies {
		cfg := config.Default()
		cfg.L1MissLatency = lat
		sweeps = append(sweeps, p.sweep(cfg))
	}
	return func() *Report {
		tbl := stats.NewTable("Average SI speedup vs L1 miss latency",
			append([]string{"Config"}, "lat300", "lat600", "lat900")...)
		values := make(map[string]float64)
		perLatency := make([]map[string]float64, len(latencies)) // policy -> mean
		n := float64(len(workload.AppNames()))
		for l, lat := range latencies {
			means := make(map[string]float64)
			var bestSum float64
			for _, row := range sweeps[l] {
				best := 0.0
				for j, pol := range policies() {
					sp := row[j].speedup()
					means[pol.label] += sp / n
					if sp > best {
						best = sp
					}
				}
				bestSum += best
			}
			means["BestOf"] = bestSum / n
			perLatency[l] = means
			for pol, m := range means {
				values[fmt.Sprintf("lat%d/%s", lat, pol)] = m
			}
		}

		var labels []string
		for _, pol := range policies() {
			labels = append(labels, pol.label)
		}
		for _, label := range append(labels, "BestOf") {
			row := []string{label}
			for l := range latencies {
				row = append(row, stats.Percent(perLatency[l][label]))
			}
			tbl.AddRow(row...)
		}

		return &Report{
			ID:    "fig13",
			Title: "Average speedups across L1 miss latency settings",
			Paper: "BestOf speedups of 4.2%, 6.6% and 7.6% at 300, 600 and 900 cycles: " +
				"SI's benefit grows with memory latency",
			Tables: []*stats.Table{tbl},
			Values: values,
		}
	}
}

// fig14 regenerates the warp-slot sensitivity: SI (Both, N>=0.5) versus
// an identically warp-throttled baseline at 8, 16 and 32 peak warps per
// SM (2, 4 and 8 slots per processing block).
func fig14(p *plan) func() *Report {
	slotSettings := []int{2, 4, 8} // per processing block = 8/16/32 per SM
	var perSlot [][]pair
	for _, slots := range slotSettings {
		cfg := config.Default()
		cfg.WarpSlotsPerBlock = slots
		perSlot = append(perSlot, p.best(cfg))
	}
	return func() *Report {
		tbl := stats.NewTable("SI speedup over equally-throttled baseline vs peak warp slots",
			"Trace", "8 warps", "16 warps", "32 warps")
		values := make(map[string]float64)
		for i, name := range workload.AppNames() {
			row := []string{name}
			for s, slots := range slotSettings {
				sp := perSlot[s][i].speedup()
				values[fmt.Sprintf("%s/warps%d", name, slots*4)] = sp
				row = append(row, stats.Percent(sp))
			}
			tbl.AddRow(row...)
		}
		row := []string{"mean"}
		for s, slots := range slotSettings {
			m := meanSpeedup(perSlot[s])
			values[fmt.Sprintf("mean/warps%d", slots*4)] = m
			row = append(row, stats.Percent(m))
		}
		tbl.AddRow(row...)

		return &Report{
			ID:    "fig14",
			Title: "Sensitivity to number of warp slots",
			Paper: "5.1%, 5.7% and 6.3% average speedups at 8, 16 and 32 peak warps: " +
				"warp throttling reduces latency tolerance everywhere, slightly muting SI",
			Tables: []*stats.Table{tbl},
			Values: values,
		}
	}
}

// fig15 regenerates the TST-size sensitivity: SI speedup with support
// for 2, 4, 6 and unlimited (32) subwarps per warp, at 32 peak warps.
func fig15(p *plan) func() *Report {
	sizes := []int{2, 4, 6, 32}
	var cfgs []config.Config
	for _, n := range sizes {
		cfg := bestSingle(config.Default())
		cfg.SI.MaxSubwarps = n
		cfgs = append(cfgs, cfg)
	}
	var rows [][]pair
	for _, k := range p.traces() {
		rows = append(rows, p.vs(k, config.Default(), cfgs...))
	}
	return func() *Report {
		tbl := stats.NewTable("SI speedup vs supported subwarps per warp (TST entries)",
			"Trace", "2 subwarps", "4 subwarps", "6 subwarps", "unlimited")
		values := make(map[string]float64)
		for i, name := range workload.AppNames() {
			row := []string{name}
			for j, n := range sizes {
				sp := rows[i][j].speedup()
				values[fmt.Sprintf("%s/tst%d", name, n)] = sp
				row = append(row, stats.Percent(sp))
			}
			tbl.AddRow(row...)
		}
		row := []string{"mean"}
		for _, n := range sizes {
			var sum float64
			for _, name := range workload.AppNames() {
				sum += values[fmt.Sprintf("%s/tst%d", name, n)]
			}
			m := sum / float64(len(workload.AppNames()))
			values[fmt.Sprintf("mean/tst%d", n)] = m
			row = append(row, stats.Percent(m))
		}
		tbl.AddRow(row...)
		if values["mean/tst32"] > 0 {
			values["capture_4"] = values["mean/tst4"] / values["mean/tst32"]
		}

		return &Report{
			ID:    "fig15",
			Title: "Sensitivity to subwarps per warp",
			Paper: "2 subwarps already capture 4.2% average; 4 subwarps reach 5.2%, " +
				"82% of the unlimited configuration's upside, with one eighth the TST logic",
			Tables: []*stats.Table{tbl},
			Values: values,
			Notes: []string{
				fmt.Sprintf("4-entry TST captures %s of unlimited here", stats.Percent(values["capture_4"])),
			},
		}
	}
}

// icache regenerates the Section V-C4 study: the best SI configuration
// with the default (upsized) instruction caches versus 4x smaller L0
// and L1 instruction caches mimicking shipping GPUs.
func icache(p *plan) func() *Report {
	deflt := config.Default()
	small := config.Default()
	small.L0InstrBytes = deflt.L0InstrBytes / 4
	small.L1InstrBytes = deflt.L1InstrBytes / 4
	big, sm4 := p.best(deflt), p.best(small)
	return func() *Report {
		tbl := stats.NewTable("SI speedup (Both,N>=0.5) vs instruction cache sizing",
			"Trace", "16KB L0 / 64KB L1I", "4KB L0 / 16KB L1I")
		values := make(map[string]float64)
		var bigSum, smallSum float64
		for i, name := range workload.AppNames() {
			b, s := big[i].speedup(), sm4[i].speedup()
			values[name+"/big"] = b
			values[name+"/small"] = s
			bigSum += b
			smallSum += s
			tbl.AddRow(name, stats.Percent(b), stats.Percent(s))
		}
		n := float64(len(workload.AppNames()))
		values["mean/big"] = bigSum / n
		values["mean/small"] = smallSum / n
		tbl.AddRow("mean", stats.Percent(bigSum/n), stats.Percent(smallSum/n))

		return &Report{
			ID:    "icache",
			Title: "Instruction cache sizing",
			Paper: "with 4x smaller L0/L1 instruction caches (mimicking shipping GPUs) the best " +
				"configuration's 6.3% average drops to 4.5%, about 70% of the upsized-cache speedup",
			Tables: []*stats.Table{tbl},
			Values: values,
			Notes: []string{
				fmt.Sprintf("small-cache mean retains %s of the upsized-cache mean",
					stats.Percent(safeDiv(values["mean/small"], values["mean/big"]))),
			},
		}
	}
}
