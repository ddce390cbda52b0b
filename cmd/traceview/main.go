// Command traceview inspects a generated workload: disassembly, static
// footprint, scene statistics, and the per-warp divergence profile
// produced by actually tracing the first warps' rays through the BVH.
// With -replay it additionally simulates the kernel with the event
// recorder attached and renders an ASCII subwarp-state timeline (a
// generalization of the paper's Fig. 10) plus the idle-cycle
// stall-attribution table.
//
//	traceview -app BFV1
//	traceview -app Ctrl -disasm
//	traceview -microbench 2
//	traceview -microbench 4 -replay -si -width 120
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"subwarpsim"
	"subwarpsim/internal/obs"
)

func main() {
	appHelp := "application trace name, one of: " + strings.Join(subwarpsim.ApplicationNames(), ", ")
	app := flag.String("app", "", appHelp)
	micro := flag.Int("microbench", 0, "microbenchmark subwarp size (1..32)")
	disasm := flag.Bool("disasm", false, "print the full program disassembly")
	warps := flag.Int("warps", 8, "warps to profile for divergence (and rows in -replay)")
	replay := flag.Bool("replay", false, "simulate with tracing and render the subwarp-state timeline")
	si := flag.Bool("si", false, "enable Subwarp Interleaving for -replay")
	yield := flag.Bool("yield", false, "enable subwarp-yield for -replay")
	width := flag.Int("width", 100, "timeline columns for -replay")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Printf("traceview %s\n", obs.Build())
		return
	}

	var kernel *subwarpsim.Kernel
	var err error
	switch {
	case *micro > 0:
		kernel, err = subwarpsim.BuildMicrobenchmark(subwarpsim.DefaultMicrobenchmark(*micro))
	case *app != "":
		var p subwarpsim.AppProfile
		if p, err = subwarpsim.Application(*app); err != nil {
			fmt.Fprintf(os.Stderr, "traceview: %v\nvalid -app names: %s\n",
				err, strings.Join(subwarpsim.ApplicationNames(), ", "))
			os.Exit(1)
		}
		kernel, err = subwarpsim.BuildMegakernel(p)
	default:
		fmt.Fprintln(os.Stderr, "choose -app <name> or -microbench <subwarp size>")
		fmt.Fprintf(os.Stderr, "valid -app names: %s\n", strings.Join(subwarpsim.ApplicationNames(), ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	prog := kernel.Program
	fmt.Printf("kernel      %s\n", prog.Name)
	fmt.Printf("instrs      %d (%.1f KB encoded, %d regs/thread)\n",
		prog.Len(), float64(prog.StaticFootprintBytes(8))/1024, prog.RegsPerThread)
	fmt.Printf("warps       %d (%d threads)\n", kernel.NumWarps, kernel.NumWarps*32)

	if kernel.BVH != nil {
		fmt.Printf("scene       %s\n", kernel.BVH.Stats())
		profileDivergence(kernel, *warps)
	}

	if *disasm {
		fmt.Println()
		fmt.Print(prog.Disassemble())
	}

	if *replay {
		replayTimeline(kernel, *si, *yield, *warps, *width)
	}
}

// replayTimeline runs the kernel with the event recorder attached and
// prints the reconstructed subwarp-state chart and stall attribution.
// The attached recorder puts the run in the stepped regime.
func replayTimeline(kernel *subwarpsim.Kernel, si, yield bool, warps, width int) {
	cfg := subwarpsim.DefaultConfig()
	if si {
		cfg = cfg.WithSI(yield, subwarpsim.TriggerHalfStalled)
	}
	rec := subwarpsim.NewTraceRecorder()
	cfg.Trace = rec
	res, err := subwarpsim.Run(cfg, kernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nreplay      %s, %d cycles, %d events recorded\n",
		cfg.PolicyName(), res.Counters.Cycles, rec.Len())
	fmt.Print(rec.ASCIITimeline(subwarpsim.TimelineOptions{Width: width, MaxWarps: warps}))
	fmt.Printf("\n%s", subwarpsim.StallAttribution(res.Counters))
}

// profileDivergence traces each warp's 32 primary rays and reports how
// many distinct shaders the warp dispatches — the subwarp count SI can
// exploit (Fig. 5's splintering).
func profileDivergence(kernel *subwarpsim.Kernel, warps int) {
	hist := make(map[int]int)
	for w := 0; w < warps && w < kernel.NumWarps; w++ {
		shaders := make(map[int]bool)
		for lane := 0; lane < 32; lane++ {
			ray := kernel.RayGen(uint32(w*32 + lane))
			hit := kernel.BVH.Traverse(ray, 1e-4, subwarpsim.InfinityT)
			mat := subwarpsim.MissMaterial
			if hit.Ok {
				mat = hit.Material
			}
			shaders[mat] = true
		}
		hist[len(shaders)]++
	}
	fmt.Printf("divergence  primary-ray shader counts per warp (first %d warps):\n", warps)
	for ways := 1; ways <= 32; ways++ {
		if n := hist[ways]; n > 0 {
			fmt.Printf("            %2d-way: %d warps\n", ways, n)
		}
	}
}
