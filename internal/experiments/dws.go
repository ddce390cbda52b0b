package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// dws compares Subwarp Interleaving against a model of Dynamic Warp
// Subdivision (Meng et al., ISCA 2010), the paper's closest related
// work. DWS runs diverged subwarps concurrently by forking them into
// *unused warp slots*, so its benefit collapses when occupancy is high;
// SI keeps subwarps inside their warp's own slot and needs no free
// slots. Section VII-B: "We believe that our approach will perform
// better than DWS, especially when there are few unused warp slots as
// is likely to be the case with effective asynchronous compute use."
func dws(p *plan) func() *Report {
	// Each kernel runs at baseline, under SI and under DWS: two pairs
	// against the one baseline.
	base := config.Default()
	declare := func(k *sm.Kernel) []pair { return p.vs(k, base, bestSingle(base), base.WithDWS()) }
	const bySI, byDWS = 0, 1
	var traces [][]pair
	for _, k := range p.traces() {
		traces = append(traces, declare(k))
	}
	// Slot-pressure sweep: the same trace at decreasing occupancy.
	// Fewer resident warps leave DWS more free slots to fork into.
	bfv, err := workload.ProfileByName("BFV1")
	if err != nil {
		panic(err) // a registered trace
	}
	regs := []int{64, 88, 104, 136, 255}
	var sweep [][]pair
	for _, r := range regs {
		prof := quickProfile(bfv, p.o)
		prof.RegsPerThread = r
		sweep = append(sweep, declare(p.kernel(prof)))
	}

	return func() *Report {
		tbl := stats.NewTable("SI vs Dynamic Warp Subdivision (per trace, native occupancy)",
			"Trace", "Resident warps/block", "Free slots", "DWS", "SI (Both,N>=0.5)")
		values := make(map[string]float64)
		var dwsSum, siSum float64
		for i, app := range workload.Apps() {
			name := app.Name
			gainDWS, gainSI := traces[i][byDWS].speedup(), traces[i][bySI].speedup()
			values[name+"/dws"] = gainDWS
			values[name+"/si"] = gainSI
			dwsSum += gainDWS
			siSum += gainSI
			resident := residentWarps(app.RegsPerThread)
			tbl.AddRow(name, fmt.Sprint(resident), fmt.Sprint(8-resident),
				stats.Percent(gainDWS), stats.Percent(gainSI))
		}
		n := float64(len(workload.AppNames()))
		values["mean/dws"] = dwsSum / n
		values["mean/si"] = siSum / n
		tbl.AddRow("mean", "", "", stats.Percent(dwsSum/n), stats.Percent(siSum/n))

		pressure := stats.NewTable("Slot-pressure sweep on BFV1: register pressure frees warp slots",
			"Regs/thread", "Resident warps/block", "Free slots", "DWS", "SI (Both,N>=0.5)")
		for i, r := range regs {
			gainDWS, gainSI := sweep[i][byDWS].speedup(), sweep[i][bySI].speedup()
			resident := residentWarps(r)
			values[fmt.Sprintf("bfv1_regs%d/dws", r)] = gainDWS
			values[fmt.Sprintf("bfv1_regs%d/si", r)] = gainSI
			values[fmt.Sprintf("bfv1_regs%d/gap", r)] = gainSI - gainDWS
			pressure.AddRow(fmt.Sprint(r), fmt.Sprint(resident), fmt.Sprint(8-resident),
				stats.Percent(gainDWS), stats.Percent(gainSI))
		}

		return &Report{
			ID:    "dws",
			Title: "Extension: Subwarp Interleaving vs Dynamic Warp Subdivision",
			Paper: "not quantified in the paper; Section VII-B argues SI should beat DWS when few " +
				"warp slots are free, since DWS relies on forking subwarps into unused slots",
			Tables: []*stats.Table{tbl, pressure},
			Values: values,
			Notes: []string{
				"DWS is modeled as slot-budgeted subwarp parallelism: each concurrently parked " +
					"subwarp occupies a free warp slot, splits are eager and switch-free",
			},
		}
	}
}

// residentWarps computes warps resident per block at a register
// footprint under the default 16K-register file and 8 slots.
func residentWarps(regsPerThread int) int {
	n := 512 / regsPerThread
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}
