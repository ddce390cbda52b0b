// Command experiments regenerates the paper's tables and figures.
//
//	experiments                  # run everything
//	experiments -run fig12a      # one artifact
//	experiments -run fig3,fig13  # a subset
//	experiments -quick           # smaller workloads (smoke runs)
//	experiments -o results.txt   # also write a report file
//	experiments -run matrix -policy gto -workload bfs,texture
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"subwarpsim"
	"subwarpsim/internal/experiments"
	"subwarpsim/internal/obs"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	jobs := flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
	outPath := flag.String("o", "", "also write the combined report to this file")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	policyFlag := flag.String("policy", "", "warp scheduler policy override: lrr (default), gto, wasp; the matrix experiment narrows its policy axis to this")
	workloadFlag := flag.String("workload", "",
		"comma-separated workload families for the matrix experiment ("+strings.Join(subwarpsim.WorkloadNames(), ", ")+"); empty means all")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	policy, err := subwarpsim.ParseSchedPolicy(*policyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var workloads []string
	if *workloadFlag != "" {
		for _, name := range strings.Split(*workloadFlag, ",") {
			workloads = append(workloads, strings.TrimSpace(name))
		}
	}

	if *version {
		fmt.Printf("experiments %s\n", obs.Build())
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := experiments.Options{
		Quick:       *quick,
		Workers:     *jobs,
		Context:     ctx,
		SchedPolicy: policy,
		Workloads:   workloads,
	}
	start := time.Now()
	reports, tally, err := experiments.RunAll(opts, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var combined strings.Builder
	for _, r := range reports {
		combined.WriteString(r.String())
		combined.WriteString("\n")
	}
	fmt.Print(combined.String())
	fmt.Printf("(%d experiments: %d simulations declared, %d simulated, in %s)\n",
		len(reports), tally.Declared, tally.Simulated, time.Since(start).Round(time.Millisecond))

	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(combined.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *outPath)
	}
}
