package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// Fig13 regenerates the L1 miss latency sensitivity: mean speedup of
// every SI policy and the BestOf across latencies of 300, 600 and 900
// cycles. SI tolerates latency, so speedups grow with miss latency.
func Fig13(o Options) (*Report, error) {
	latencies := []int{300, 600, 900}
	tbl := stats.NewTable("Average SI speedup vs L1 miss latency",
		append([]string{"Config"}, "lat300", "lat600", "lat900")...)
	values := make(map[string]float64)

	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	perLatency := make(map[int]map[string]float64) // lat -> policy -> mean
	for _, lat := range latencies {
		cfg := config.Default()
		cfg.L1MissLatency = lat
		results, err := appSweep(apps, cfg, o)
		if err != nil {
			return nil, err
		}
		means := make(map[string]float64)
		n := float64(len(workload.AppNames()))
		var bestSum float64
		for _, name := range workload.AppNames() {
			base := results[name+"/baseline"]
			best := 0.0
			for _, p := range policies() {
				sp := stats.Speedup(base.Counters, results[name+"/"+p.label].Counters)
				means[p.label] += sp / n
				if sp > best {
					best = sp
				}
			}
			bestSum += best
		}
		means["BestOf"] = bestSum / n
		perLatency[lat] = means
		for pol, m := range means {
			values[fmt.Sprintf("lat%d/%s", lat, pol)] = m
		}
	}

	for _, p := range policies() {
		row := []string{p.label}
		for _, lat := range latencies {
			row = append(row, stats.Percent(perLatency[lat][p.label]))
		}
		tbl.AddRow(row...)
	}
	row := []string{"BestOf"}
	for _, lat := range latencies {
		row = append(row, stats.Percent(perLatency[lat]["BestOf"]))
	}
	tbl.AddRow(row...)

	return &Report{
		ID:    "fig13",
		Title: "Average speedups across L1 miss latency settings",
		Paper: "BestOf speedups of 4.2%, 6.6% and 7.6% at 300, 600 and 900 cycles: " +
			"SI's benefit grows with memory latency",
		Tables: []*stats.Table{tbl},
		Values: values,
	}, nil
}

// Fig14 regenerates the warp-slot sensitivity: SI (Both, N>=0.5) versus
// an identically warp-throttled baseline at 8, 16 and 32 peak warps per
// SM (2, 4 and 8 slots per processing block).
func Fig14(o Options) (*Report, error) {
	slotSettings := []int{2, 4, 8} // per processing block = 8/16/32 per SM
	tbl := stats.NewTable("SI speedup over equally-throttled baseline vs peak warp slots",
		"Trace", "8 warps", "16 warps", "32 warps")
	values := make(map[string]float64)

	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	perSlot := make(map[int]map[string]float64)
	for _, slots := range slotSettings {
		cfg := config.Default()
		cfg.WarpSlotsPerBlock = slots
		results, err := appSweepBest(apps, cfg, o)
		if err != nil {
			return nil, err
		}
		perSlot[slots] = results
	}

	for _, name := range workload.AppNames() {
		row := []string{name}
		for _, slots := range slotSettings {
			sp := perSlot[slots][name]
			values[fmt.Sprintf("%s/warps%d", name, slots*4)] = sp
			row = append(row, stats.Percent(sp))
		}
		tbl.AddRow(row...)
	}
	row := []string{"mean"}
	for _, slots := range slotSettings {
		var sum float64
		for _, name := range workload.AppNames() {
			sum += perSlot[slots][name]
		}
		m := sum / float64(len(workload.AppNames()))
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
	}, nil
}

// appSweepBest runs baseline and the best single policy (Both,N>=0.5)
// per app under cfg, returning per-app speedups.
func appSweepBest(apps []namedKernel, cfg config.Config, o Options) (map[string]float64, error) {
	var jobs []job
	for _, a := range apps {
		jobs = append(jobs,
			job{key: a.name + "/base", cfg: cfg, kernel: a.kernel},
			job{key: a.name + "/si", cfg: bestSingle(cfg), kernel: a.kernel},
		)
	}
	results, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, name := range workload.AppNames() {
		out[name] = stats.Speedup(results[name+"/base"].Counters, results[name+"/si"].Counters)
	}
	return out, nil
}

// Fig15 regenerates the TST-size sensitivity: SI speedup with support
// for 2, 4, 6 and unlimited (32) subwarps per warp, at 32 peak warps.
func Fig15(o Options) (*Report, error) {
	sizes := []int{2, 4, 6, 32}
	tbl := stats.NewTable("SI speedup vs supported subwarps per warp (TST entries)",
		"Trace", "2 subwarps", "4 subwarps", "6 subwarps", "unlimited")
	values := make(map[string]float64)

	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, a := range apps {
		jobs = append(jobs, job{key: a.name + "/base", cfg: config.Default(), kernel: a.kernel})
		for _, n := range sizes {
			cfg := bestSingle(config.Default())
			cfg.SI.MaxSubwarps = n
			jobs = append(jobs, job{key: fmt.Sprintf("%s/tst%d", a.name, n), cfg: cfg, kernel: a.kernel})
		}
	}
	results, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}

	for _, name := range workload.AppNames() {
		base := results[name+"/base"]
		row := []string{name}
		for _, n := range sizes {
			sp := stats.Speedup(base.Counters, results[fmt.Sprintf("%s/tst%d", name, n)].Counters)
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
	}, nil
}

// ICache regenerates the Section V-C4 study: the best SI configuration
// with the default (upsized) instruction caches versus 4x smaller L0
// and L1 instruction caches mimicking shipping GPUs.
func ICache(o Options) (*Report, error) {
	deflt := config.Default()
	small := config.Default()
	small.L0InstrBytes = deflt.L0InstrBytes / 4
	small.L1InstrBytes = deflt.L1InstrBytes / 4

	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("SI speedup (Both,N>=0.5) vs instruction cache sizing",
		"Trace", "16KB L0 / 64KB L1I", "4KB L0 / 16KB L1I")
	values := make(map[string]float64)

	big, err := appSweepBest(apps, deflt, o)
	if err != nil {
		return nil, err
	}
	sm4, err := appSweepBest(apps, small, o)
	if err != nil {
		return nil, err
	}
	var bigSum, smallSum float64
	for _, name := range workload.AppNames() {
		values[name+"/big"] = big[name]
		values[name+"/small"] = sm4[name]
		bigSum += big[name]
		smallSum += sm4[name]
		tbl.AddRow(name, stats.Percent(big[name]), stats.Percent(sm4[name]))
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
	}, nil
}
