package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		"bad compile":         {[]string{"-microbench", "4", "-compile", "maybe"}, "maybe"},
		// A knob the chosen mode never reads is still checked, as the
		// daemon checks it, and the refusal lists the valid names.
		"bad trigger, no si": {[]string{"-microbench", "4", "-trigger", "bogus"}, "any, half, all"},
		"bad trigger, dws":   {[]string{"-microbench", "4", "-dws", "-trigger", "bogus"}, "bogus"},
		"bad order lists":    {[]string{"-microbench", "4", "-order", "sideways"}, "taken, fallthrough, largest, random"},
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

// TestCLICompileModesAgree: -compile=off must run the stepped regime
// and report exactly the cycle count of the fast-forward default.
func TestCLICompileModesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := buildCLI(t)
	cycles := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "cycles") {
				return line
			}
		}
		return ""
	}
	comp, stderr, code := runCLI(t, bin, "-microbench", "4", "-si", "-compile", "on")
	if code != 0 {
		t.Fatalf("compiled run failed: %s", stderr)
	}
	interp, stderr, code := runCLI(t, bin, "-microbench", "4", "-si", "-compile", "off")
	if code != 0 {
		t.Fatalf("interpreted run failed: %s", stderr)
	}
	if c1, c2 := cycles(comp), cycles(interp); c1 == "" || c1 != c2 {
		t.Errorf("engines report different cycles: %q vs %q", c1, c2)
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

	// The kill point is part of the deterministic contract: both
	// execution regimes report the identical message.
	_, interp, code := runCLI(t, bin,
		"-submit", filepath.Join(hostile, "infinite_loop.asm"), "-max-cycles", "10000", "-compile", "off")
	if code != 1 {
		t.Fatalf("interpreted kill exit = %d, want 1", code)
	}
	if interp != stderr {
		t.Errorf("engines disagree on the kill:\ncompiled:    %q\ninterpreted: %q", stderr, interp)
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
