package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subwarpsim/internal/server"
)

// buildCLI compiles the sisim binary once per test into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sisim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (stdout string, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var outB, errB strings.Builder
	cmd.Stdout, cmd.Stderr = &outB, &errB
	err := cmd.Run()
	if err != nil {
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("run %v: %v", args, err)
		}
		return outB.String(), errB.String(), exitErr.ExitCode()
	}
	return outB.String(), errB.String(), 0
}

// TestCLIErrorPaths: every invalid invocation must exit 1 with a
// single-line error on stderr and no partial result table on stdout.
func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)

	for name, tc := range map[string]struct {
		args    []string
		wantErr string
	}{
		"no workload":         {[]string{}, "choose a workload"},
		"unknown app":         {[]string{"-app", "NoSuchApp"}, "NoSuchApp"},
		"negative microbench": {[]string{"-microbench", "-3"}, "-3"},
		"odd microbench":      {[]string{"-microbench", "5"}, "5"},
		"both workloads":      {[]string{"-app", "BFV1", "-microbench", "4"}, "not several"},
		"app and workload":    {[]string{"-app", "BFV1", "-workload", "gemm"}, "not several"},
		"unknown workload":    {[]string{"-workload", "nosuch"}, "nosuch"},
		"bad policy":          {[]string{"-microbench", "4", "-policy", "fifo"}, "fifo"},
		"bad order":           {[]string{"-microbench", "4", "-order", "sideways"}, "sideways"},
		"bad trigger":         {[]string{"-microbench", "4", "-si", "-trigger", "most"}, "most"},
		"bad trace warps":     {[]string{"-microbench", "4", "-trace", "/dev/null", "-trace-warps", "x"}, "trace-warps"},
		"stray argument":      {[]string{"-microbench", "4", "stray"}, "stray"},
		"tiny timeout":        {[]string{"-microbench", "4", "-timeout", "1ns"}, "cancelled"},
		// A knob the chosen mode never reads is still checked, as the
		// daemon checks it, and the refusal lists the valid names.
		"bad trigger, no si": {[]string{"-microbench", "4", "-trigger", "bogus"}, "any, half, all"},
		"bad trigger, dws":   {[]string{"-microbench", "4", "-dws", "-trigger", "bogus"}, "bogus"},
		"bad order lists":    {[]string{"-microbench", "4", "-order", "sideways"}, "taken, fallthrough, largest, random"},
		// The knobs are the daemon's JobSpec, refused with its messages.
		"si and dws":             {[]string{"-microbench", "4", "-si", "-dws"}, "spec sets both si and dws; pick one"},
		"negative maxsubwarps":   {[]string{"-microbench", "4", "-maxsubwarps", "-1"}, "negative knob values are invalid"},
		"negative latency":       {[]string{"-microbench", "4", "-si", "-latency", "-5"}, "negative knob values are invalid"},
		"submit, si and dws":     {[]string{"-submit", "../../examples/submissions/saxpy.asm", "-si", "-dws"}, "pick one"},
		"submit, negative slots": {[]string{"-submit", "../../examples/submissions/saxpy.asm", "-warpslots", "-2"}, "negative knob"},
		// -submit takes /v1/submit's semantics: the daemon's launch bound
		// and message, and no architecture numbers a body cannot carry.
		"submit, too many warps": {[]string{"-submit", "../../examples/submissions/saxpy.asm", "-warps", "2000"}, "warps 2000 outside [1, 1024]"},
		"submit, latency":        {[]string{"-submit", "../../examples/submissions/saxpy.asm", "-latency", "300"}, "not /v1/submit fields"},
		// A warp list is checked against the kernel before it is expanded.
		"trace warps past the kernel": {[]string{"-microbench", "4", "-trace", "/dev/null", "-trace-warps", "0-2000000000"}, "past the kernel's 8 warps"},
	} {
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, bin, tc.args...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q must mention %q", stderr, tc.wantErr)
			}
			if n := strings.Count(strings.TrimRight(stderr, "\n"), "\n"); n != 0 {
				t.Errorf("stderr must be one line, got %d:\n%s", n+1, stderr)
			}
			if strings.Contains(stdout, "cycles") {
				t.Errorf("failed run must not print a result table:\n%s", stdout)
			}
		})
	}
}

// TestCLIWorkloadMenu pins the dynamic -workload enumeration: the
// usage text, the -listapps catalog, and the unknown-name error must
// all list every registered generator family, so none of them can go
// stale as families are added (the old usage text only mentioned the
// raytracing traces).
func TestCLIWorkloadMenu(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	families := []string{"bfs", "gemm", "texture"}

	_, usage, code := runCLI(t, bin, "-h")
	if code != 0 {
		t.Fatalf("-h exit code = %d, want 0 (flag.ErrHelp)", code)
	}
	for _, f := range families {
		if !strings.Contains(usage, f) {
			t.Errorf("usage text must enumerate family %q:\n%s", f, usage)
		}
	}

	list, stderr, code := runCLI(t, bin, "-listapps")
	if code != 0 {
		t.Fatalf("-listapps failed: %s", stderr)
	}
	for _, f := range families {
		if !strings.Contains(list, f) {
			t.Errorf("-listapps must include family %q:\n%s", f, list)
		}
	}

	_, stderr, code = runCLI(t, bin, "-workload", "nosuch")
	if code != 1 {
		t.Fatalf("unknown workload exit code = %d, want 1", code)
	}
	for _, f := range families {
		if !strings.Contains(stderr, f) {
			t.Errorf("unknown-workload error must enumerate %q: %s", f, stderr)
		}
	}
}

// TestCLIWorkloadPolicyRun: a generator family runs end to end under a
// non-default scheduler policy, and the config line reports the policy.
func TestCLIWorkloadPolicyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	stdout, stderr, code := runCLI(t, bin,
		"-workload", "gemm", "-policy", "gto", "-si", "-timeout", "2m")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"kernel", "cycles", "gto sched"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

// TestCLICacheRoundTrip: two runs against the same -cache-dir simulate
// once and report identical cycle counts.
func TestCLICacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	args := []string{"-microbench", "4", "-si", "-cache-dir", dir}

	first, stderr, code := runCLI(t, bin, args...)
	if code != 0 {
		t.Fatalf("first run failed: %s", stderr)
	}
	if strings.Contains(first, "cache     hit") {
		t.Fatal("first run cannot hit an empty cache")
	}
	second, stderr, code := runCLI(t, bin, args...)
	if code != 0 {
		t.Fatalf("second run failed: %s", stderr)
	}
	if !strings.Contains(second, "cache     hit") {
		t.Fatalf("second run must hit the cache:\n%s", second)
	}
	cycles := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "cycles") {
				return line
			}
		}
		return ""
	}
	if c1, c2 := cycles(first), cycles(second); c1 == "" || c1 != c2 {
		t.Errorf("cached cycles differ: %q vs %q", c1, c2)
	}
}

// TestCLIKeyMatchesDaemon: the key sisim -cache-dir reports on a hit is
// JobSpec.Key of the same knobs, the key sisimd answers under, and a
// zero -latency or -warpslots means the Table I default, as a zero
// latency_cycles or warp_slots does. A -submit file is keyed as sisimd
// keys the same source on /v1/submit, whatever the file is called: a
// zero budget flag means the default, one past the maximum clamps to
// it, and the launch size is keyed.
func TestCLIKeyMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	const saxpy = "../../examples/submissions/saxpy.asm"
	for _, tc := range []struct {
		args   []string
		spec   server.JobSpec
		submit string // when set, the source whose daemon submission gives the key
		sub    server.SubmitSpec
	}{
		{args: []string{"-microbench", "4", "-si", "-yield", "-trigger", "any", "-latency", "900",
			"-maxsubwarps", "4", "-policy", "gto", "-order", "largest"},
			spec: server.JobSpec{Microbench: 4, SI: true, Yield: true, Trigger: "any", LatencyCycles: 900,
				MaxSubwarps: 4, Policy: "gto", Order: "largest"}},
		{args: []string{"-workload", "texture", "-dws", "-warpslots", "4"},
			spec: server.JobSpec{Workload: "texture", DWS: true, WarpSlots: 4}},
		{args: []string{"-microbench", "8", "-latency", "0", "-warpslots", "0"},
			spec: server.JobSpec{Microbench: 8}},
		{args: []string{"-submit", saxpy}, submit: saxpy},
		{args: []string{"-submit", saxpy, "-max-cycles", "0"}, submit: saxpy},
		{args: []string{"-submit", saxpy, "-max-cycles", "50000000"}, submit: saxpy,
			sub: server.SubmitSpec{MaxCycles: 50_000_000}},
		{args: []string{"-submit", saxpy, "-warps", "16"}, submit: saxpy,
			sub: server.SubmitSpec{Warps: 16}},
	} {
		want := daemonKey(t, tc.spec, tc.submit, tc.sub)
		args := append(tc.args, "-cache-dir", t.TempDir())
		var out string
		for run := 0; run < 2; run++ {
			stdout, stderr, code := runCLI(t, bin, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr)
			}
			out = stdout
		}
		if line := "cache     hit " + want; !strings.Contains(out, line) {
			t.Errorf("%v: second run must print %q:\n%s", tc.args, line, out)
		}
	}
}

// daemonKey is the key sisimd answers under: spec's, or with submit set
// that of an in-process submission sub of the file's source.
func daemonKey(t *testing.T, spec server.JobSpec, submit string, sub server.SubmitSpec) string {
	t.Helper()
	if submit == "" {
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		return key.String()
	}
	src, err := os.ReadFile(submit)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1})
	defer s.Drain(context.Background())
	sub.Assembly = string(src)
	res, err := s.SubmitKernel(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	return res.Key
}

// TestCLIChartAndDisasm: -chart prints the subwarp-state chart and
// -disasm the program listing, byte for byte as the retired traceview
// command printed them (testdata holds its output).
func TestCLIChartAndDisasm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	for _, tc := range []struct {
		args   []string
		pinned string
	}{
		{[]string{"-microbench", "4", "-si", "-chart", "100"}, "testdata/chart_microbench4_si_w100.txt"},
		{[]string{"-microbench", "4", "-disasm"}, "testdata/disasm_microbench4.txt"},
	} {
		want, err := os.ReadFile(tc.pinned)
		if err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := runCLI(t, bin, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
		}
		if !strings.HasSuffix(stdout, "\n\n"+string(want)) {
			t.Errorf("%v: output does not end with %s:\n%s", tc.args, tc.pinned, stdout)
		}
	}
}

// TestParseWarpList: a warp list comes back sorted and without
// duplicates, and an ID at or past the kernel's warp count is refused
// before any range is expanded.
func TestParseWarpList(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []int
		wantErr string
	}{
		{in: "0-7", want: []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{in: "0-3,2", want: []int{0, 1, 2, 3}},
		{in: "12,4,0", want: []int{0, 4, 12}},
		{in: " 5 , 3-4,,3", want: []int{3, 4, 5}},
		{in: "15", want: []int{15}},
		{in: "16", wantErr: "past the kernel's 16 warps"},
		{in: "0-2000000000", wantErr: "past the kernel's 16 warps"},
		{in: "x", wantErr: "bad warp ID"},
		{in: "-1", wantErr: "bad warp ID"},
		{in: "4-2", wantErr: "bad range"},
		{in: ",", wantErr: "empty warp list"},
	} {
		got, err := parseWarpList(tc.in, 16)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseWarpList(%q) = %v, %v; want an error mentioning %q", tc.in, got, err, tc.wantErr)
			}
		case err != nil || !slices.Equal(got, tc.want):
			t.Errorf("parseWarpList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestCLIBaselineStillRuns guards the ordinary no-flag success path,
// including the throughput summary an uncached run must report.
func TestCLIBaselineStillRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	stdout, stderr, code := runCLI(t, bin, "-microbench", "4", "-timeout", "2m")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"kernel", "cycles", "instrs", "wall", "sim-cycles/sec"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

// TestCLISubmitSamples: every kernel shipped in examples/submissions
// runs end to end under -submit — through the same admission checks
// and gas budgets the daemon applies — and reports its budget line.
func TestCLISubmitSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	samples, err := filepath.Glob("../../examples/submissions/*.asm")
	if err != nil || len(samples) < 2 {
		t.Fatalf("want at least two sample submissions, got %v (%v)", samples, err)
	}
	for _, sample := range samples {
		t.Run(filepath.Base(sample), func(t *testing.T) {
			stdout, stderr, code := runCLI(t, bin, "-submit", sample, "-timeout", "2m")
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			for _, want := range []string{"kernel", "budget", "cycles", "stayed within"} {
				if !strings.Contains(stdout, want) {
					t.Errorf("output missing %q:\n%s", want, stdout)
				}
			}
		})
	}
}

// TestCLISubmitSandbox: hostile inputs fail closed — a statically
// invalid kernel is rejected with a structured admission reason, a
// runaway kernel is killed by the gas meter, and both exit 1.
func TestCLISubmitSandbox(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	hostile := "../../internal/admission/testdata/hostile"

	stdout, stderr, code := runCLI(t, bin, "-submit", filepath.Join(hostile, "oob_load.asm"))
	if code != 1 || !strings.Contains(stderr, "admission reject") || !strings.Contains(stderr, "footprint") {
		t.Errorf("oob_load: exit %d, stderr %q; want exit 1 with a footprint admission reject", code, stderr)
	}
	if strings.Contains(stdout, "cycles") {
		t.Errorf("rejected run must not print a result table:\n%s", stdout)
	}

	_, stderr, code = runCLI(t, bin,
		"-submit", filepath.Join(hostile, "infinite_loop.asm"), "-max-cycles", "10000")
	if code != 1 || !strings.Contains(stderr, "budget exhausted") {
		t.Errorf("infinite_loop: exit %d, stderr %q; want exit 1 with a budget kill", code, stderr)
	}
}

// TestCLIProfileFlags: -cpuprofile and -memprofile must produce
// non-empty pprof files alongside a normal run.
func TestCLIProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stdout, stderr, code := runCLI(t, bin,
		"-microbench", "4", "-timeout", "2m", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "cycles") {
		t.Fatalf("profiled run must still print results:\n%s", stdout)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile %s missing: %v", path, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestCLIProfileFlushedOnError: a run that fails after profiling has
// started (here: immediate context timeout) must still stop the CPU
// profile and close the file — fail() exits the process, so the stop
// runs through the cleanup registry, not a defer. Before that fix the
// file was left zero-length because profile data is only written at
// StopCPUProfile.
func TestCLIProfileFlushedOnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	_, stderr, code := runCLI(t, bin,
		"-microbench", "4", "-timeout", "1ns", "-cpuprofile", cpu)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "cancelled") {
		t.Fatalf("expected a cancellation error, got: %s", stderr)
	}
	fi, err := os.Stat(cpu)
	if err != nil {
		t.Fatalf("profile missing after failed run: %v", err)
	}
	if fi.Size() == 0 {
		t.Errorf("profile is empty: the failed run did not flush it")
	}
}
