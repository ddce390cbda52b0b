package subwarpsim

// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and
// reports its headline metric alongside wall-clock cost:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the experiments' Quick mode (fewer waves/bounces) so a
// full -bench=. pass stays in the tens of seconds; cmd/experiments
// regenerates the full-size artifacts.

import (
	"testing"

	"subwarpsim/internal/experiments"
)

func benchExperiment(b *testing.B, id string, metrics map[string]string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		r, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		for key, unit := range metrics {
			b.ReportMetric(r.Values[key]*100, unit)
		}
	}
}

// BenchmarkFig3 regenerates the baseline stall characterisation.
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", map[string]string{
		"mean/total":     "mean-stall-%",
		"mean/divergent": "mean-divstall-%",
	})
}

// BenchmarkTable3 regenerates the microbenchmark divergence sweep.
func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, "table3", map[string]string{
		"speedup_16": "speedup16x-x100",
		"speedup_32": "speedup32x-x100",
	})
}

// BenchmarkFig12a regenerates the per-application policy sweep.
func BenchmarkFig12a(b *testing.B) {
	benchExperiment(b, "fig12a", map[string]string{
		"mean/Both,N>=0.5": "mean-speedup-%",
		"BFV2/Both,N>=0.5": "bfv2-speedup-%",
	})
}

// BenchmarkFig12b regenerates the stall-reduction analysis.
func BenchmarkFig12b(b *testing.B) {
	benchExperiment(b, "fig12b", map[string]string{
		"mean/divergent": "divstall-reduction-%",
		"mean/total":     "stall-reduction-%",
	})
}

// BenchmarkFig13 regenerates the L1 miss latency sensitivity.
func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13", map[string]string{
		"lat300/BestOf": "best300-%",
		"lat900/BestOf": "best900-%",
	})
}

// BenchmarkFig14 regenerates the warp-slot sensitivity.
func BenchmarkFig14(b *testing.B) {
	benchExperiment(b, "fig14", map[string]string{
		"mean/warps8":  "warps8-%",
		"mean/warps32": "warps32-%",
	})
}

// BenchmarkFig15 regenerates the TST-size sensitivity.
func BenchmarkFig15(b *testing.B) {
	benchExperiment(b, "fig15", map[string]string{
		"mean/tst2":  "tst2-%",
		"mean/tst32": "unlimited-%",
	})
}

// BenchmarkICacheSizing regenerates the Section V-C4 study.
func BenchmarkICacheSizing(b *testing.B) {
	benchExperiment(b, "icache", map[string]string{
		"mean/big":   "big-caches-%",
		"mean/small": "small-caches-%",
	})
}

// BenchmarkOrderAblation regenerates the activation-order ablation.
func BenchmarkOrderAblation(b *testing.B) {
	benchExperiment(b, "order", map[string]string{
		"taken-first": "taken-first-%",
		"random":      "random-%",
	})
}

// BenchmarkYieldAblation regenerates the yield-threshold ablation.
func BenchmarkYieldAblation(b *testing.B) {
	benchExperiment(b, "yield", map[string]string{
		"threshold1": "threshold1-%",
		"threshold8": "threshold8-%",
	})
}

// BenchmarkSimulationRate measures raw simulator throughput: simulated
// cycles per wall second on one application baseline. The kernel
// (program, scene, BVH) is built once before the timer starts, so the
// reported rate covers simulation alone.
func BenchmarkSimulationRate(b *testing.B) {
	app, err := Application("Ctrl")
	if err != nil {
		b.Fatal(err)
	}
	app.NumWarps = 32
	k, err := BuildMegakernel(app)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(DefaultConfig(), k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// benchEngine times one execution regime on the paper's divergence
// microbenchmark scaled to 256 warps: a scheduler-bound workload with
// no RT-core functional work, so what is measured is instruction
// dispatch and scheduling — exactly what basic-block fast-forward
// accelerates. The kernel is built once before the timer starts;
// program lowering (Program.Compiled) is cached on the program, so
// only the first iteration pays it.
func benchEngine(b *testing.B, compiled bool) {
	p := DefaultMicrobenchmark(4)
	p.NumWarps = 256
	cfg := DefaultConfig()
	cfg.Compiled = compiled
	k, err := BuildMicrobenchmark(p)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkGPURunCompiled times the fast-forward regime (the
// Config.Compiled default).
func BenchmarkGPURunCompiled(b *testing.B) { benchEngine(b, true) }

// BenchmarkGPURunInterpreted times the stepped regime (-compile=off:
// the same executor with fast-forward off) on the same workload; both
// regimes retire identical cycle counts, so the sim-cycles/op metrics
// match and only wall time differs.
func BenchmarkGPURunInterpreted(b *testing.B) { benchEngine(b, false) }

// benchGenerator times one synthetic workload family end to end at its
// default full-occupancy size. The kernel is built once before the
// timer starts, so the reported rate covers simulation alone; with
// sim-cycles/op it gives throughput per family (irregular BFS
// simulates slower per cycle than divergence-free GEMM).
func benchGenerator(b *testing.B, name string) {
	k, err := BuildWorkload(name)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(DefaultConfig(), k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkGPURunGEMM times the divergence-free tiled-GEMM family: the
// compute-regular end of the workload spectrum, where basic-block
// fast-forward sees its longest straight-line windows.
func BenchmarkGPURunGEMM(b *testing.B) { benchGenerator(b, "gemm") }

// BenchmarkGPURunBFS times the irregular frontier-traversal family: the
// divergence-heavy SI stress case, dominated by data-dependent branch
// splits and reconvergence work.
func BenchmarkGPURunBFS(b *testing.B) { benchGenerator(b, "bfs") }

// BenchmarkGPURunTexture times the mixed-latency graphics family:
// texture-path loads interleaved with ALU work.
func BenchmarkGPURunTexture(b *testing.B) { benchGenerator(b, "texture") }

// benchGPURun measures one whole-device simulation at a fixed worker
// count, on an 8-SM device so SM-level parallelism has work to spread.
func benchGPURun(b *testing.B, workers int) {
	app, err := Application("Ctrl")
	if err != nil {
		b.Fatal(err)
	}
	app.NumWarps = 256
	cfg := DefaultConfig()
	cfg.NumSMs = 8
	k, err := BuildMegakernel(app)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWorkers(cfg, k, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPURunSequential simulates all SMs on one goroutine; the
// baseline BenchmarkGPURunParallel is compared against.
func BenchmarkGPURunSequential(b *testing.B) { benchGPURun(b, 1) }

// BenchmarkGPURunParallel simulates one SM per goroutine, up to
// GOMAXPROCS at a time. Results are bit-identical to the sequential
// run; only wall-clock changes (no speedup on a single-core host).
func BenchmarkGPURunParallel(b *testing.B) { benchGPURun(b, 0) }

// benchSweep measures a whole experiment sweep at a fixed
// simulation-level worker count.
func benchSweep(b *testing.B, workers int) {
	e, ok := experiments.ByID("fig12a")
	if !ok {
		b.Fatal("unknown experiment fig12a")
	}
	opts := experiments.Options{Quick: true, Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentsSweepSequential runs the Fig. 12a policy sweep
// one simulation at a time.
func BenchmarkExperimentsSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkExperimentsSweepParallel runs the same sweep on the bounded
// worker pool (GOMAXPROCS simulations in flight).
func BenchmarkExperimentsSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkDWSComparison regenerates the SI-vs-DWS extension study.
func BenchmarkDWSComparison(b *testing.B) {
	benchExperiment(b, "dws", map[string]string{
		"mean/dws": "dws-mean-%",
		"mean/si":  "si-mean-%",
	})
}
