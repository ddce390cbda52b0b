package experiments

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// DWS compares Subwarp Interleaving against a model of Dynamic Warp
// Subdivision (Meng et al., ISCA 2010), the paper's closest related
// work. DWS runs diverged subwarps concurrently by forking them into
// *unused warp slots*, so its benefit collapses when occupancy is high;
// SI keeps subwarps inside their warp's own slot and needs no free
// slots. Section VII-B: "We believe that our approach will perform
// better than DWS, especially when there are few unused warp slots as
// is likely to be the case with effective asynchronous compute use."
func DWS(o Options) (*Report, error) {
	apps, err := buildApps(o)
	if err != nil {
		return nil, err
	}
	// trio is the three-way comparison of one kernel under a key prefix.
	trio := func(prefix string, k *sm.Kernel) []job {
		return []job{
			{key: prefix + "base", cfg: config.Default(), kernel: k},
			{key: prefix + "si", cfg: bestSingle(config.Default()), kernel: k},
			{key: prefix + "dws", cfg: config.Default().WithDWS(), kernel: k},
		}
	}
	var jobs []job
	for _, a := range apps {
		jobs = append(jobs, trio(a.name+"/", a.kernel)...)
	}
	results, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("SI vs Dynamic Warp Subdivision (per trace, native occupancy)",
		"Trace", "Resident warps/block", "Free slots", "DWS", "SI (Both,N>=0.5)")
	values := make(map[string]float64)
	var dwsSum, siSum float64
	for _, app := range workload.Apps() {
		name := app.Name
		base := results[name+"/base"]
		dws := stats.Speedup(base.Counters, results[name+"/dws"].Counters)
		si := stats.Speedup(base.Counters, results[name+"/si"].Counters)
		values[name+"/dws"] = dws
		values[name+"/si"] = si
		dwsSum += dws
		siSum += si
		resident := residentWarps(app)
		tbl.AddRow(name, fmt.Sprint(resident), fmt.Sprint(8-resident),
			stats.Percent(dws), stats.Percent(si))
	}
	n := float64(len(workload.AppNames()))
	values["mean/dws"] = dwsSum / n
	values["mean/si"] = siSum / n
	tbl.AddRow("mean", "", "", stats.Percent(dwsSum/n), stats.Percent(siSum/n))

	// Slot-pressure sweep: the same trace at decreasing occupancy.
	// Fewer resident warps leave DWS more free slots to fork into.
	pressure := stats.NewTable("Slot-pressure sweep on BFV1: register pressure frees warp slots",
		"Regs/thread", "Resident warps/block", "Free slots", "DWS", "SI (Both,N>=0.5)")
	bfv, err := workload.ProfileByName("BFV1")
	if err != nil {
		return nil, err
	}
	for _, regs := range []int{64, 88, 104, 136, 255} {
		p := quickProfile(bfv, o)
		p.RegsPerThread = regs
		k, err := workload.Megakernel(p)
		if err != nil {
			return nil, err
		}
		res, err := runJobs(o, trio("", k))
		if err != nil {
			return nil, err
		}
		dws := stats.Speedup(res["base"].Counters, res["dws"].Counters)
		si := stats.Speedup(res["base"].Counters, res["si"].Counters)
		resident := residentWarps(p)
		values[fmt.Sprintf("bfv1_regs%d/dws", regs)] = dws
		values[fmt.Sprintf("bfv1_regs%d/si", regs)] = si
		values[fmt.Sprintf("bfv1_regs%d/gap", regs)] = si - dws
		pressure.AddRow(fmt.Sprint(regs), fmt.Sprint(resident), fmt.Sprint(8-resident),
			stats.Percent(dws), stats.Percent(si))
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
	}, nil
}

// residentWarps computes warps resident per block for a profile under
// the default 16K-register file and 8 slots.
func residentWarps(p workload.AppProfile) int {
	n := 512 / p.RegsPerThread
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}
