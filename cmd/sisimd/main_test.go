package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
)

// buildDaemon compiles the sisimd binary into a test temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sisimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDaemonSmoke drives the real binary end to end: start on an
// ephemeral port, POST the same job twice (second must be a cache
// hit), check health and metrics, then SIGTERM and expect a clean
// drain.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line; stderr: %s", stderr.String())
	}
	line := sc.Text()
	const prefix = "sisimd listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := "http://" + strings.TrimPrefix(line, prefix)
	go func() { // drain remaining output so the child never blocks
		for sc.Scan() {
		}
	}()

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	post := func() map[string]any {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"microbench":4,"si":true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/jobs = %d", resp.StatusCode)
		}
		var res map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := post()
	if first["cached"] == true {
		t.Fatal("first job cannot be cached")
	}
	second := post()
	if second["cached"] != true {
		t.Fatal("second identical job must be served from the cache")
	}
	f, _ := json.Marshal(first["counters"])
	s, _ := json.Marshal(second["counters"])
	if !bytes.Equal(f, s) {
		t.Errorf("cached counters differ:\n  first  %s\n  second %s", f, s)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		JobsDone           int64   `json:"jobs_done"`
		SimCyclesTotal     int64   `json:"sim_cycles_total"`
		SimCyclesPerSecond float64 `json:"sim_cycles_per_second"`
		Cache              struct {
			Hits int64 `json:"hits"`
		} `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsDone != 1 || m.Cache.Hits != 1 {
		t.Errorf("metrics: done=%d hits=%d, want 1/1", m.JobsDone, m.Cache.Hits)
	}
	if m.SimCyclesTotal <= 0 || m.SimCyclesPerSecond <= 0 {
		t.Errorf("metrics: sim_cycles_total=%d sim_cycles_per_second=%v, want both > 0",
			m.SimCyclesTotal, m.SimCyclesPerSecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestDaemonDiskCachePersists restarts the daemon on the same cache
// directory and expects the second process to serve from disk.
func TestDaemonDiskCachePersists(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	cacheDir := t.TempDir()

	runOnce := func() (cached bool) {
		t.Helper()
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Signal(syscall.SIGTERM)
			cmd.Wait()
		}()
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatal("no startup line")
		}
		base := "http://" + strings.TrimPrefix(sc.Text(), "sisimd listening on ")
		go func() {
			for sc.Scan() {
			}
		}()
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"microbench":2}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST = %d", resp.StatusCode)
		}
		var res map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res["cached"] == true
	}

	if runOnce() {
		t.Fatal("first process cannot hit an empty disk cache")
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir entries = %v, %v", entries, err)
	}
	if !runOnce() {
		t.Error("second process must serve the job from the disk cache")
	}
}

// TestDaemonDegradedServing is the acceptance drill for a failing
// cache disk: -cache-dir points through a regular file, so every disk
// operation fails with ENOTDIR (permission bits are useless here —
// tests may run as root). The daemon must start anyway, serve correct
// results memory-only with zero non-200 responses, trip the breaker,
// report "degraded" on /healthz, and still drain cleanly.
func TestDaemonDegradedServing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-cache-dir", filepath.Join(blocker, "cache"),
		"-cache-retries", "-1",
		"-breaker-trip", "2",
		"-breaker-cooldown", "1h")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line; stderr: %s", stderr.String())
	}
	base := "http://" + strings.TrimPrefix(sc.Text(), "sisimd listening on ")
	go func() {
		for sc.Scan() {
		}
	}()

	// Distinct jobs hammer the dead disk past the trip threshold; every
	// one must still return 200 with real results.
	var lastCounters string
	for i, body := range []string{
		`{"microbench":1}`, `{"microbench":2}`, `{"microbench":4}`,
	} {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var res map[string]any
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d with dead disk = %d, want 200 (%v)", i, resp.StatusCode, res)
		}
		b, _ := json.Marshal(res["counters"])
		lastCounters = string(b)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health["status"] != "degraded" {
		t.Errorf("healthz = %d %v, want 200 with status degraded", resp.StatusCode, health)
	}

	// Memory-only serving still caches: the repeat is a hit with
	// bit-identical counters, and no request has seen a 5xx.
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"microbench":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var repeat map[string]any
	err = json.NewDecoder(resp.Body).Decode(&repeat)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || repeat["cached"] != true {
		t.Errorf("repeat with open breaker = %d cached=%v, want 200 from memory", resp.StatusCode, repeat["cached"])
	}
	if b, _ := json.Marshal(repeat["counters"]); string(b) != lastCounters {
		t.Errorf("memory-cached counters differ:\n  first  %s\n  repeat %s", lastCounters, b)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Degraded bool `json:"degraded"`
		Cache    struct {
			BreakerTrips int64 `json:"breaker_trips"`
			DiskErrors   int64 `json:"disk_errors"`
		} `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || m.Cache.BreakerTrips != 1 || m.Cache.DiskErrors < 2 {
		t.Errorf("metrics = %+v, want degraded with 1 trip and >=2 disk errors", m)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded daemon exited uncleanly: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degraded daemon did not drain after SIGTERM")
	}
}

// TestDaemonSubmitSandbox is the sandbox gate: a race-enabled daemon
// is fed the entire hostile corpus through POST /v1/submit and must
// reject every program with a structured reason (400) or kill it
// within its gas budget (422) — then still serve well-formed work,
// answer /healthz, count the attacks in its metrics, and drain
// cleanly (a detected data race fails the drain with exit code 66).
func TestDaemonSubmitSandbox(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary under -race")
	}
	bin := filepath.Join(t.TempDir(), "sisimd-race")
	if out, err := exec.Command("go", "build", "-race", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-submit-max-cycles", "20000", "-submit-max-instrs", "40000",
		"-submit-max-mem", "1048576", "-tenant-queued", "16")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line; stderr: %s", stderr.String())
	}
	base := "http://" + strings.TrimPrefix(sc.Text(), "sisimd listening on ")
	go func() {
		for sc.Scan() {
		}
	}()

	submit := func(tenant, name, assembly string) (int, map[string]any) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"name": name, "assembly": assembly})
		req, err := http.NewRequest(http.MethodPost, base+"/v1/submit", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("undecodable response (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, m
	}

	files, err := filepath.Glob("../../internal/admission/testdata/hostile/*.asm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no hostile corpus: %v", err)
	}
	var rejected, killed int
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		switch code, body := submit("attacker", name, string(src)); code {
		case http.StatusBadRequest:
			if r, _ := body["reason"].(string); r == "" {
				t.Errorf("%s: 400 without a structured reason: %v", name, body)
			}
			rejected++
		case http.StatusUnprocessableEntity:
			_, budget := body["budget_exhausted"]
			_, deadlock := body["deadlock"]
			if !budget && !deadlock {
				t.Errorf("%s: 422 without budget or deadlock marker: %v", name, body)
			}
			killed++
		default:
			t.Errorf("%s: status %d — hostile input escaped the sandbox: %v", name, code, body)
		}
	}
	if rejected == 0 || killed == 0 {
		t.Fatalf("gate is vacuous: %d rejects, %d kills", rejected, killed)
	}

	// A body past the front's bound is refused at the read — a
	// structured 413 — before any of it is buffered or assembled.
	code, body := submit("attacker", "huge", strings.Repeat("A", server.MaxBodyBytes))
	if code != http.StatusRequestEntityTooLarge || body["error"] == nil || body["max_body_bytes"] == nil {
		t.Errorf("oversized submission = %d %v, want a structured 413", code, body)
	}

	// The daemon shrugged it all off: health, then a real kernel.
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after hostile corpus: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	sample, err := os.ReadFile("../../examples/submissions/saxpy.asm")
	if err != nil {
		t.Fatal(err)
	}
	if code, body := submit("paying-customer", "saxpy", string(sample)); code != http.StatusOK {
		t.Fatalf("well-formed submission after corpus = %d: %v", code, body)
	}

	// The attack shows up on the instruments, labeled by tenant.
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var expo strings.Builder
	io.Copy(&expo, resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sisimd_admission_rejects_total", "sisimd_budget_kills_total",
		`sisimd_tenant_queue_depth{tenant="attacker"}`,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %s after the corpus run", want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly (data race?): %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after the hostile corpus")
	}
}

// startDaemon launches the built binary with extra flags and returns
// the base URL; cleanup SIGTERMs it and waits for the drain.
func startDaemon(t *testing.T, bin string, extra ...string) string {
	base, _ := startDaemonCmd(t, bin, extra...)
	return base
}

// startDaemonCmd also returns the process handle so tests can kill a
// daemon mid-run (the cluster reroute test).
func startDaemonCmd(t *testing.T, bin string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line; stderr: %s", stderr.String())
	}
	base := "http://" + strings.TrimPrefix(sc.Text(), "sisimd listening on ")
	go func() {
		for sc.Scan() {
		}
	}()
	return base, cmd
}

// TestDaemonCluster drives the coordinator topology end to end with
// real daemon processes: two workers plus a coordinator routing across
// them. Checks content-key affinity (a repeated job is a cache hit
// through the coordinator), /cluster reporting, and rerouting — after
// one worker is SIGKILLed, every key still answers with the results
// computed before the kill, bit for bit.
func TestDaemonCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	w1base, w1 := startDaemonCmd(t, bin, "-workers", "1")
	w2base, _ := startDaemonCmd(t, bin, "-workers", "1")
	cobase, _ := startDaemonCmd(t, bin, "-coordinator",
		"-peers", w1base+","+w2base, "-breaker-trip", "1", "-workers", "1")

	post := func(spec string) (map[string]any, int) {
		t.Helper()
		resp, err := http.Post(cobase+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res map[string]any
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
		}
		return res, resp.StatusCode
	}

	resp, err := http.Get(cobase + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Peers []struct {
			State string `json:"breaker_state"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(report.Peers) != 2 {
		t.Fatalf("/cluster lists %d peers, want 2", len(report.Peers))
	}

	// Sweep distinct keys, then repeat: affinity must make every repeat
	// a worker-side cache hit through the coordinator.
	specs := make([]string, 6)
	for i := range specs {
		specs[i] = `{"microbench":4,"si":true,"latency_cycles":` + strconv.Itoa(200+10*i) + `}`
	}
	first := make([]map[string]any, len(specs))
	for i, spec := range specs {
		res, code := post(spec)
		if code != http.StatusOK {
			t.Fatalf("first pass POST = %d", code)
		}
		first[i] = res
	}
	for i, spec := range specs {
		res, code := post(spec)
		if code != http.StatusOK {
			t.Fatalf("second pass POST = %d", code)
		}
		if res["cached"] != true {
			t.Errorf("repeat of spec %d not served from cache (affinity broken)", i)
		}
		if res["key"] != first[i]["key"] {
			t.Errorf("spec %d key changed between passes", i)
		}
	}

	// Kill one worker outright; every key must still answer, identical
	// to the pre-kill result (rerouted to the surviving worker or, for
	// its cached keys, re-simulated there — determinism makes both
	// indistinguishable).
	if err := w1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w1.Wait()
	for i, spec := range specs {
		res, code := post(spec)
		if code != http.StatusOK {
			t.Fatalf("post-kill POST %d = %d", i, code)
		}
		if res["key"] != first[i]["key"] {
			t.Errorf("spec %d key differs after worker kill", i)
		}
		if fmt.Sprint(res["counters"]) != fmt.Sprint(first[i]["counters"]) {
			t.Errorf("spec %d counters differ after worker kill:\n  before %v\n  after  %v",
				i, first[i]["counters"], res["counters"])
		}
	}
}

// TestDaemonPprofGating: /debug/pprof/ must 404 by default and serve
// the profile index only when the daemon opted in with -pprof, without
// shadowing the normal API surface.
func TestDaemonPprofGating(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	get := func(base, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body strings.Builder
		if _, err := io.Copy(&body, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.String()
	}

	off := startDaemon(t, bin)
	if code, _ := get(off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("without -pprof, /debug/pprof/ = %d, want 404", code)
	}

	on := startDaemon(t, bin, "-pprof")
	if code, body := get(on, "/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("with -pprof, /debug/pprof/ = %d, want 200 with profile index", code)
	}
	if code, _ := get(on, "/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Errorf("with -pprof, heap profile = %d, want 200", code)
	}
	// The API surface must survive the wrapping mux, and /metrics must
	// advertise the throughput gauge even before any job has run.
	if code, body := get(on, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "sim_cycles_per_second") {
		t.Errorf("with -pprof, /metrics = %d body %q, want 200 mentioning sim_cycles_per_second",
			code, body)
	}
}

// TestDaemonFaultSpecRejected: a malformed SISIM_FAULTS/-faults spec
// fails startup loudly rather than silently injecting nothing.
func TestDaemonFaultSpecRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-faults", "server.admit=explode(p=1)")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("bad fault spec must fail startup")
	}
	if !strings.Contains(string(out), "explode") {
		t.Errorf("output %q must name the bad kind", out)
	}
}

// TestDaemonRejectsBadFlags: startup failures exit non-zero with a
// one-line error.
func TestDaemonRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:8477", "surprise-arg")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("stray argument must fail startup")
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("exit: %v", err)
	}
	if !strings.Contains(string(out), "unexpected argument") {
		t.Errorf("output %q must name the stray argument", out)
	}

	for name, args := range map[string][]string{
		"malformed entry": {"-addr", "127.0.0.1:0", "-tenant-weights", "goldnovalue"},
		"zero weight":     {"-addr", "127.0.0.1:0", "-tenant-weights", "gold=0"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%s: bad -tenant-weights must fail startup", name)
		}
		if !strings.Contains(string(out), "tenant-weights") {
			t.Errorf("%s: output %q must name the flag", name, out)
		}
	}
}

// TestDaemonMetricsExposition scrapes the live daemon in both formats:
// the default JSON shape must keep its legacy keys plus the new latency
// breakdowns, and Accept: text/plain must switch to Prometheus text
// exposition that passes the grammar lint and carries every required
// series.
func TestDaemonMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	base := startDaemon(t, bin, "-workers", "2")

	// One job so latency and SI series carry data.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"microbench":4,"si":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs = %d", resp.StatusCode)
	}

	// Default: the backward-compatible JSON document.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default /metrics content-type = %q", ct)
	}
	var jm map[string]any
	err = json.NewDecoder(resp.Body).Decode(&jm)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"jobs_done", "queue_depth", "sim_cycles_total", "cache",
		"latency_p99_ms", "queue_wait_p95_ms", "exec_p95_ms",
	} {
		if _, ok := jm[k]; !ok {
			t.Errorf("JSON /metrics missing %q", k)
		}
	}

	// Prometheus: lint the exposition and require the key series.
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus /metrics content-type = %q", ct)
	}
	if err := obs.Lint(bytes.NewReader(body)); err != nil {
		t.Fatalf("prometheus exposition failed lint: %v\n%s", err, body)
	}
	for _, series := range []string{
		"sisimd_queue_depth",
		"sisimd_cache_hits_total",
		"sisimd_cache_misses_total",
		"sisimd_stage_latency_seconds_bucket",
		"sisimd_si_idle_cycles_total",
		"sisimd_si_subwarp_switches_total",
		"sisimd_build_info",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("exposition missing required series %s", series)
		}
	}
}

// TestDaemonVersionFlag: -version prints build info and exits 0
// without binding a port.
func TestDaemonVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("-version: %v\n%s", err, out)
	}
	line := strings.TrimSpace(string(out))
	if !strings.HasPrefix(line, "sisimd ") || !strings.Contains(line, "go1.") {
		t.Errorf("-version output %q, want 'sisimd ... (go1...)'", line)
	}
}
