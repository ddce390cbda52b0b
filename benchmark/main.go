// Command benchmark is the repository's benchmark: seven named
// workloads from the instruction-set layer up to a three-worker
// cluster, each reporting end-to-end metrics with tracing off and
// per-layer metrics from a separate traced run, with the outputs
// checked in the same command. See README.md in this directory.
//
// One workload, as the driver runs it (the last line of standard output
// is the result object):
//
//	go run ./benchmark -workload serve-hot -seed 1 -seconds 10 -trace 0
//
// Everything, as a person runs it:
//
//	go run ./benchmark -seed 1            # all workloads, untraced then traced
//	go run ./benchmark -seed 1 -sets 2    # twice, compared against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const moduleLine = "module subwarpsim"

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), moduleLine) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with %q above the working directory; run from the repository", moduleLine)
		}
		dir = parent
	}
}

// newEnv builds cmd/sisimd from source into the build directory and
// makes a scratch directory for this process. Both live under
// .bench_build in the module root, which .gitignore names, so a run
// neither dirties the tree nor writes outside it.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, sisimd: filepath.Join(build, "sisimd")}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.sisimd, "./cmd/sisimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(e.scratch)
		return nil, fmt.Errorf("go build ./cmd/sisimd: %w\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	return e, nil
}

// hostInfo is carried by every report, so that numbers from different
// machines are never compared by accident.
type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHost(root string) hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sameMachine reports whether two reports may be compared.
func (h hostInfo) sameMachine(o hostInfo) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

// driverLine is the object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toDriverLine(r runResult, defs []metricDef) driverLine {
	d := driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	for _, def := range defs {
		d.Metrics[def.Name] = metricValue{Value: r.Metrics[def.Name], Unit: def.Unit}
	}
	return d
}

func main() { os.Exit(run()) }

func run() int {
	var o runOpts
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	sets := flag.Int("sets", 0, "run the whole benchmark this many times and compare the sets against the bounds")
	compare := flag.String("compare", "", "comma-separated report files (from -out) to compare instead of running")
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	flag.Float64Var(&o.rate, "rate", 0, "with -workload: open loop at this many requests a second, timed from the due time (default: closed loop)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs, about a second per workload, every check on")
	flag.StringVar(&o.outDir, "out", "", "directory for report-<set>.json, samples-<workload>.json and spans-<workload>.json (default: keep none)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 || o.rate < 0 || (o.rate > 0 && o.workload == "") {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	o.trace = *trace == 1
	if *compare != "" {
		return compareFiles(strings.Split(*compare, ","))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	switch {
	case code != 0:
	case o.workload != "":
		code = runDriver(ctx, e, o)
	default:
		code = runAllSets(ctx, e, o, max(*sets, 1))
	}
	if err := e.cleanup(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cleanup:", err)
		code = 1
	}
	return code
}

// runDriver runs one workload and prints the driver's result line. A
// run that could not produce a result prints none and exits non-zero.
func runDriver(ctx context.Context, e *env, o runOpts) int {
	res, err := runOne(ctx, e, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d ops, supports p%d; pass-0 cycles %d, instrs %d\n",
		o.workload, o.seed, res.Samples, res.TailPct, res.Repeat["pass0_cycles"], res.Repeat["pass0_instrs"])
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	detail, _ := json.Marshal(map[string]any{"host": readHost(e.root), "seed": o.seed,
		"workload": o.workload, "repeat": res.Repeat, "problems": res.Problems})
	fmt.Println(string(detail))
	line, err := json.Marshal(toDriverLine(res, defs))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report is one whole-benchmark set.
type report struct {
	Host      hostInfo                      `json:"host"`
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Daemons   map[string][]string           `json:"daemon_flags"`
	EndToEnd  map[string]map[string]float64 `json:"end_to_end"` // workload -> metric -> value
	PerLayer  map[string]map[string]float64 `json:"per_layer"`
	Repeat    map[string]map[string]int64   `json:"exact_repeat"`
	Samples   map[string]int                `json:"samples"`
	TailPct   map[string]int                `json:"supported_tail_pct"`
	Problems  map[string][]string           `json:"problems,omitempty"`
	Units     map[string]string             `json:"units"`
	Workloads map[string]string             `json:"workloads"` // name -> load shape
	Ops       map[string]*opCount           `json:"operations"`
}

// opCount is a workload's operations over its untraced and traced run.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// runSet runs every workload, untraced then traced, each run in a
// child process of this binary — what the driver does — so that one
// workload's memory high-water mark is not the previous one's.
func runSet(ctx context.Context, e *env, o runOpts) (report, error) {
	rep := report{
		Host: readHost(e.root), Seed: o.seed, Seconds: o.seconds,
		Daemons:  map[string][]string{},
		EndToEnd: map[string]map[string]float64{}, PerLayer: map[string]map[string]float64{},
		Repeat: map[string]map[string]int64{}, Samples: map[string]int{}, TailPct: map[string]int{},
		Problems: map[string][]string{}, Units: map[string]string{}, Workloads: map[string]string{},
		Ops: map[string]*opCount{},
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		rep.Units[d.Name] = d.Unit
	}
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	for _, sc := range scenarios {
		rep.Workloads[sc.name] = sc.loop()
		rep.Ops[sc.name] = &opCount{}
		if sc.topo != topoLibrary {
			rep.Daemons[sc.name] = sc.node.flags(anyPort, "<tmp>")
		}
		for _, traced := range []bool{false, true} {
			o := o
			o.workload, o.trace = sc.name, traced
			res, err := runChild(ctx, self, e.root, o)
			if err != nil {
				return rep, fmt.Errorf("%s (trace %v): %w", sc.name, traced, err)
			}
			if traced {
				rep.PerLayer[sc.name] = res.Metrics
			} else {
				rep.EndToEnd[sc.name] = res.Metrics
				rep.Repeat[sc.name] = res.Repeat
				rep.Samples[sc.name], rep.TailPct[sc.name] = res.Samples, res.TailPct
			}
			rep.Problems[sc.name] = append(rep.Problems[sc.name], res.Problems...)
			rep.Ops[sc.name].Attempted += res.Attempted
			rep.Ops[sc.name].Failed += res.Failed
			fmt.Fprintf(os.Stderr, "benchmark: %-16s trace %d done (%d ops, %d failed, %d check failures)\n",
				sc.name, b2i(traced), res.Attempted, res.Failed, len(res.Problems))
		}
	}
	return rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and reads back its two
// JSON lines: the detail line and the driver's result line.
func runChild(ctx context.Context, self, root string, o runOpts) (runResult, error) {
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(b2i(o.trace))}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.outDir != "" {
		abs, err := filepath.Abs(o.outDir)
		if err != nil {
			return runResult{}, err
		}
		args = append(args, "-out", abs)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	// An interrupt goes to the child as SIGTERM so it stops its own daemons.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return runResult{}, fmt.Errorf("child printed %d lines, want the detail and the result line", len(lines))
	}
	var detail struct {
		Repeat   map[string]int64 `json:"repeat"`
		Problems []string         `json:"problems"`
	}
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		return runResult{}, fmt.Errorf("child detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return runResult{}, fmt.Errorf("child result line: %w", err)
	}
	res := runResult{Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{},
		Problems: detail.Problems, Repeat: detail.Repeat}
	for name, v := range line.Metrics {
		res.Metrics[name] = v.Value
	}
	res.Samples = line.Attempted - line.Failed
	res.TailPct, _ = supportedTail(res.Samples)
	if !line.Correct && len(res.Problems) == 0 {
		res.Problems = []string{"child reported incorrect output"}
	}
	return res, nil
}

// runAllSets runs the benchmark n times, prints each set's report and,
// for n > 1, the comparison against the bounds.
func runAllSets(ctx context.Context, e *env, o runOpts, n int) int {
	var reps []report
	code := 0
	for i := 0; i < n; i++ {
		rep, err := runSet(ctx, e, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		raw, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(raw))
		if o.outDir != "" {
			name := filepath.Join(o.outDir, fmt.Sprintf("report-%d.json", i+1))
			if err := os.WriteFile(name, raw, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		for w, ps := range rep.Problems {
			for _, p := range ps {
				fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", w, p)
				code = 1
			}
		}
		reps = append(reps, rep)
	}
	if n > 1 {
		bounds, err := loadBounds(e.root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		ok, table := compareSets(reps, bounds)
		fmt.Print(table)
		if !ok {
			code = 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (benchmarkFile, error) {
	var f benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(raw, &f)
}

func loadBounds(root string) (map[string]float64, error) {
	f, err := loadBenchmarkFile(root)
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compareSets holds each end-to-end metric of each workload against
// its bound: the gap between the sets' values, as a share of their
// median, may not exceed it. Exact-repeat counts must be identical.
// Sets from different machines are refused outright.
func compareSets(reps []report, bounds map[string]float64) (ok bool, table string) {
	var b strings.Builder
	ok = true
	for _, r := range reps[1:] {
		if !r.Host.sameMachine(reps[0].Host) {
			return false, fmt.Sprintf("refusing to compare: sets come from different hosts (%+v vs %+v)\n", reps[0].Host, r.Host)
		}
	}
	fmt.Fprintf(&b, "%-16s %-12s %s  gap / bound\n", "workload", "metric", "per-set values")
	for _, sc := range scenarios {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range reps {
				vals = append(vals, r.EndToEnd[sc.name][d.Name])
			}
			s := sortedCopy(vals)
			gap := 0.0
			if med := median(vals); med > 0 {
				gap = (s[len(s)-1] - s[0]) / med
			}
			verdict := "ok"
			if gap > bounds[d.Name] {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(&b, "%-16s %-12s %v  %.4f / %.2f %s\n", sc.name, d.Name, vals, gap, bounds[d.Name], verdict)
		}
		var names []string
		for name := range reps[0].Repeat[sc.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, r := range reps[1:] {
				if r.Repeat[sc.name][name] != reps[0].Repeat[sc.name][name] {
					fmt.Fprintf(&b, "%-16s %-12s %d != %d: exact-repeat count differs\n", sc.name, name,
						reps[0].Repeat[sc.name][name], r.Repeat[sc.name][name])
					ok = false
				}
			}
		}
	}
	return ok, b.String()
}

func compareFiles(paths []string) int {
	var reps []report
	for _, p := range paths {
		raw, err := os.ReadFile(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 1
		}
		reps = append(reps, r)
	}
	if len(reps) < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs at least two reports")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	bounds, err := loadBounds(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ok, table := compareSets(reps, bounds)
	fmt.Print(table)
	if !ok {
		return 1
	}
	return 0
}
