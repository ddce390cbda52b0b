package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subwarpsim/internal/config"
	"subwarpsim/internal/faults"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/testutil"
	"subwarpsim/internal/workload"
)

// chaosSeed is the fault-schedule seed for the chaos tests; the CI
// gate replays the suite under several fixed SISIM_CHAOS_SEED values.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	v := os.Getenv("SISIM_CHAOS_SEED")
	if v == "" {
		return 1
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("SISIM_CHAOS_SEED=%q: %v", v, err)
	}
	return n
}

// postRaw posts spec and returns the status, headers, and decoded JSON
// body (error bodies included).
func postRaw(t *testing.T, ts *httptest.Server, path string, spec any) (int, http.Header, map[string]any) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, resp.Header, m
}

// TestChaosReplayDeterminism is the replay guarantee end to end: two
// fresh service stacks driven with the same chaos seed and the same
// job sequence produce the identical per-job outcome vector and the
// identical fault schedule. Jobs run sequentially on one worker with
// one SM goroutine so per-site hit ordinals are totally ordered —
// that is the regime where byte-for-byte replay is promised.
func TestChaosReplayDeterminism(t *testing.T) {
	seed := chaosSeed(t)
	jobs := []JobSpec{
		{Microbench: 1},
		{Microbench: 2},
		{Microbench: 2, SI: true},
		{Microbench: 4, SI: true, Yield: true},
	}
	run := func() ([]string, []faults.Event) {
		spec := fmt.Sprintf("seed=%d;%s=error(p=0.2);%s=error(p=0.15);%s=error(p=0.25);%s=error(p=0.25)",
			seed, faults.SiteServerAdmit, faults.SiteSMRun,
			faults.SiteDiskRead, faults.SiteDiskWrite)
		in, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := simcache.NewDisk(t.TempDir())
		d.Faults = in
		d.Logf = t.Logf
		cache := simcache.NewResilient(d, simcache.ResilientOptions{
			Retries: 1, TripAfter: 1 << 30, Sleep: func(time.Duration) {},
		})
		s := newTestServer(t, Options{Workers: 1, SimWorkers: 1, Cache: cache, Faults: in})
		var outcomes []string
		for i := 0; i < 24; i++ {
			res, err := s.Submit(context.Background(), jobs[i%len(jobs)])
			if err != nil {
				outcomes = append(outcomes, fmt.Sprintf("%d:err:%d:%v", i, errStatus(err), err))
			} else {
				outcomes = append(outcomes, fmt.Sprintf("%d:ok:%v:%v:%d",
					i, res.Cached, res.Coalesced, res.Counters.Cycles))
			}
		}
		return outcomes, in.Events()
	}

	o1, e1 := run()
	o2, e2 := run()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d diverged between identically-seeded runs:\n  a: %s\n  b: %s", i, o1[i], o2[i])
		}
	}
	if len(e1) != len(e2) {
		t.Fatalf("fault schedules differ in length: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("fault schedule event %d diverged: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	if len(e1) == 0 {
		t.Error("chaos run fired no faults; the test is vacuous")
	}
}

// TestChaosConcurrentInvariants hammers a concurrent server whose disk
// cache misbehaves half the time (errors, bit corruption) and whose
// exec path gets latency injected. The invariants: every job succeeds,
// every result is bit-identical to the fault-free reference for its
// spec (a cache may forget, never lie), and nothing leaks.
func TestChaosConcurrentInvariants(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	seed := chaosSeed(t)
	specs := []JobSpec{
		{Microbench: 2},
		{Microbench: 2, SI: true},
		{Microbench: 4, SI: true, Yield: true},
	}
	// Fault-free references, computed directly on the simulator.
	want := make([]stats.Counters, len(specs))
	for i, spec := range specs {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		k, err := spec.BuildKernel()
		if err != nil {
			t.Fatal(err)
		}
		res, err := gpu.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Counters
	}

	in, err := faults.Parse(fmt.Sprintf(
		"seed=%d;%s=error(p=0.5);%s=corrupt(p=0.2);%s=error(p=0.5);%s=partial(p=0.2);%s=latency(p=0.3,d=200us)",
		seed, faults.SiteDiskRead, faults.SiteDiskRead,
		faults.SiteDiskWrite, faults.SiteDiskWrite, faults.SiteServerExec))
	if err != nil {
		t.Fatal(err)
	}
	d := simcache.NewDisk(t.TempDir())
	d.Faults = in
	d.Logf = t.Logf
	cache := simcache.NewResilient(d, simcache.ResilientOptions{
		Retries: 1, TripAfter: 4, Cooldown: time.Hour, Sleep: func(time.Duration) {},
	})
	s := newTestServer(t, Options{Workers: 4, SimWorkers: 2, Cache: cache, Faults: in})

	const rounds = 36
	var wg sync.WaitGroup
	errs := make([]error, rounds)
	results := make([]JobResult, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(), specs[i%len(specs)])
		}(i)
	}
	wg.Wait()

	for i := 0; i < rounds; i++ {
		if errs[i] != nil {
			t.Errorf("job %d failed under disk-only chaos: %v", i, errs[i])
			continue
		}
		if results[i].Counters != want[i%len(specs)] {
			t.Errorf("job %d returned wrong counters under chaos:\n  got  %+v\n  want %+v",
				i, results[i].Counters, want[i%len(specs)])
		}
	}
	if len(in.Events()) == 0 {
		t.Error("chaos run fired no faults; the test is vacuous")
	}
	// Health honesty: the metrics degraded flag mirrors the breaker.
	// (newTestServer's cleanup drains before the leak check runs.)
	m := s.MetricsSnapshot()
	if cache.Degraded() != m.Degraded {
		t.Errorf("metrics degraded=%v but cache degraded=%v", m.Degraded, cache.Degraded())
	}
}

// TestChaosPanicQuarantine: an injected panic at the exec site is
// recovered, reported as a structured 500 once, and the offending key
// is quarantined — repeats get 422 without reaching a worker, while
// other specs keep working.
func TestChaosPanicQuarantine(t *testing.T) {
	seed := chaosSeed(t)
	in, err := faults.Parse(fmt.Sprintf("seed=%d;%s=panic(n=1)", seed, faults.SiteServerExec))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1, Faults: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := JobSpec{Microbench: 2}
	code, _, body := postRaw(t, ts, "/v1/jobs", bad)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking job = %d, want 500 (body %v)", code, body)
	}
	if q, _ := body["quarantined"].(bool); !q {
		t.Errorf("500 body must mark the key quarantined: %v", body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "panicked") {
		t.Errorf("500 body must say the job panicked: %v", body)
	}

	code, _, body = postRaw(t, ts, "/v1/jobs", bad)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("repeat of quarantined job = %d, want 422 (body %v)", code, body)
	}
	if key, _ := body["key"].(string); key == "" {
		t.Errorf("422 body must name the quarantined key: %v", body)
	}

	// A different spec is unaffected (the panic rule is spent, n=1).
	if res, code := postJob(t, ts, JobSpec{Microbench: 4}); code != http.StatusOK || res.Counters.Cycles == 0 {
		t.Errorf("healthy spec after quarantine = %d %+v, want 200 with results", code, res)
	}

	m := s.MetricsSnapshot()
	if m.Panics != 1 || m.QuarantinedKeys != 1 || m.QuarantineHits != 1 {
		t.Errorf("panic metrics = panics %d, keys %d, hits %d; want 1/1/1",
			m.Panics, m.QuarantinedKeys, m.QuarantineHits)
	}
	if m.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1 (the quarantine rejection is not a job)", m.JobsFailed)
	}
}

// TestChaosBreakerDegradesToMemory is the acceptance scenario: the
// disk cache is hard-down, so after the breaker trips the service
// serves correct results memory-only, /healthz says "degraded", and
// no request ever sees a 5xx.
func TestChaosBreakerDegradesToMemory(t *testing.T) {
	seed := chaosSeed(t)
	in, err := faults.Parse(fmt.Sprintf("seed=%d;%s=error;%s=error",
		seed, faults.SiteDiskRead, faults.SiteDiskWrite))
	if err != nil {
		t.Fatal(err)
	}
	d := simcache.NewDisk(t.TempDir())
	d.Faults = in
	d.Logf = t.Logf
	cache := simcache.NewResilient(d, simcache.ResilientOptions{
		Retries: -1, TripAfter: 3, Cooldown: time.Hour, Sleep: func(time.Duration) {},
	})
	s := newTestServer(t, Options{Workers: 2, Cache: cache, Faults: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []JobSpec{{Microbench: 1}, {Microbench: 2}, {Microbench: 4}}
	for i, spec := range specs {
		if res, code := postJob(t, ts, spec); code != http.StatusOK || res.Counters.Cycles == 0 {
			t.Fatalf("job %d with dead disk = %d %+v, want 200 with results", i, code, res)
		}
	}
	if st := cache.State(); st != simcache.BreakerOpen {
		t.Fatalf("breaker = %v after hammering a dead disk, want open", st)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "degraded" {
		t.Errorf("healthz with open breaker = %d %v, want 200 %q", resp.StatusCode, health, "degraded")
	}

	// Memory still answers: a repeat is a cache hit, not a 5xx.
	res, code := postJob(t, ts, specs[0])
	if code != http.StatusOK || !res.Cached {
		t.Errorf("repeat with open breaker = %d cached=%v, want 200 from memory", code, res.Cached)
	}
	m := s.MetricsSnapshot()
	if !m.Degraded || m.Cache.BreakerTrips != 1 || !m.Cache.Degraded {
		t.Errorf("metrics = degraded %v, trips %d; want degraded with 1 trip", m.Degraded, m.Cache.BreakerTrips)
	}
	if m.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d; a dead cache disk must not fail jobs", m.JobsFailed)
	}
}

// TestClientDisconnectCancelsSimulation: a client that goes away
// mid-job cancels the real simulation — the context reaches
// sm.RunContext, which returns context.Canceled promptly.
func TestClientDisconnectCancelsSimulation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := newTestServer(t, Options{Workers: 1})
	entered := make(chan struct{})
	simErr := make(chan error, 1)
	s.runSim = func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error) {
		// Swap in a long-running kernel so cancellation lands mid-run.
		p := workload.DefaultMicrobench(4)
		p.Iterations *= 2000
		slow, err := workload.Microbench(p)
		if err != nil {
			simErr <- err
			return gpu.Result{}, err
		}
		close(entered)
		res, err := gpu.RunContext(ctx, cfg, slow, 2)
		simErr <- err
		return res, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, JobSpec{Microbench: 4})
		errc <- err
	}()
	<-entered
	cancel() // client disconnects mid-simulation

	if err := <-errc; errStatus(err) != http.StatusRequestTimeout {
		t.Errorf("disconnected submit = %v (status %d), want 408", err, errStatus(err))
	}
	select {
	case err := <-simErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("simulation ended with %v, want context.Canceled propagated into sm.RunContext", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not observe the cancellation")
	}
}

// TestLeaderPanicFailsAllWaiters: when the singleflight leader
// panics, every coalesced waiter gets the structured 500, the key is
// quarantined for the future, and the worker pool survives to run
// other jobs.
func TestLeaderPanicFailsAllWaiters(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := newTestServer(t, Options{Workers: 1})
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runSim = func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error) {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-release
			panic("leader exploded")
		}
		return gpu.Result{Config: cfg, Blocks: 1, Counters: stats.Counters{Cycles: 42}}, nil
	}

	spec := JobSpec{Microbench: 2}
	errc := make(chan error, 2)
	go func() { _, err := s.Submit(context.Background(), spec); errc <- err }()
	<-entered // leader is running; a twin will coalesce
	go func() { _, err := s.Submit(context.Background(), spec); errc <- err }()
	waitFor(t, func() bool { return s.coalesced.Value() == 1 })
	close(release) // boom

	for i := 0; i < 2; i++ {
		err := <-errc
		if errStatus(err) != http.StatusInternalServerError {
			t.Errorf("waiter %d = %v (status %d), want 500", i, err, errStatus(err))
		}
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("waiter %d error %v must report the panic", i, err)
		}
	}

	// The key is quarantined; the pool still works for other specs.
	_, err := s.Submit(context.Background(), spec)
	if errStatus(err) != http.StatusUnprocessableEntity {
		t.Errorf("resubmit of panicked spec = %v (status %d), want 422", err, errStatus(err))
	}
	res, err := s.Submit(context.Background(), JobSpec{Microbench: 4})
	if err != nil || res.Counters.Cycles != 42 {
		t.Errorf("pool did not survive the panic: %+v, %v", res, err)
	}
	m := s.MetricsSnapshot()
	if m.Panics != 1 || m.QuarantineHits != 1 {
		t.Errorf("metrics = panics %d, quarantine hits %d; want 1/1", m.Panics, m.QuarantineHits)
	}
}

// TestRefusedLeaderReleasesJoiners is the stranded-waiter regression: a
// flight's leader registers it, drops the lock, and only then learns
// the queue is full. A twin that joined in that window must be released
// with the leader's 429 — before the fix it waited on a flight nobody
// would ever run, until its own deadline turned it into a 408. With the
// worker and the one queue slot held, every submission of the stress
// must end as a 429 and nothing else.
func TestRefusedLeaderReleasesJoiners(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s.runSim = fakeSim(started, release)
	var holders sync.WaitGroup
	hold := func(size int) { // distinct keys: one on the worker, one queued
		holders.Add(1)
		go func() {
			defer holders.Done()
			if _, err := s.Submit(context.Background(), JobSpec{Microbench: size}); err != nil {
				t.Errorf("holder %d: %v", size, err)
			}
		}()
	}
	// Holder 2 starts only once the worker holds holder 1: started
	// together, holder 2 could find holder 1 still in the one queue slot
	// and be refused.
	hold(1)
	<-started
	hold(2)
	waitFor(t, func() bool { return s.queue.Len() == 1 })

	const rounds, twins = 200, 16
	other := make(map[int]int) // status -> count, for anything but 429
	var mu sync.Mutex
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < twins; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				defer cancel()
				status := http.StatusOK
				if _, err := s.Submit(ctx, JobSpec{Microbench: 4}); err != nil {
					status = errStatus(err)
				}
				if status != http.StatusTooManyRequests {
					mu.Lock()
					other[status]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	if len(other) != 0 {
		t.Errorf("%d submissions against a full queue: want every one refused with 429, also got (status -> count) %v",
			rounds*twins, other)
	}
	close(release)
	holders.Wait()
}

// TestDrainCompletesQueuedJobs: SIGTERM-style drain with a busy worker
// AND queued jobs behind it — every queued job still completes with a
// correct result before Drain returns.
func TestDrainCompletesQueuedJobs(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	s.runSim = fakeSim(started, release)

	specs := []JobSpec{{Microbench: 1}, {Microbench: 2}, {Microbench: 4}}
	type outcome struct {
		res JobResult
		err error
	}
	outc := make(chan outcome, len(specs))
	for _, spec := range specs {
		go func(spec JobSpec) {
			res, err := s.Submit(context.Background(), spec)
			outc <- outcome{res, err}
		}(spec)
	}
	<-started // one on the worker...
	waitFor(t, func() bool { return s.queue.Len() == 2 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })
	close(release) // let all three run to completion

	for i := 0; i < len(specs); i++ {
		o := <-outc
		if o.err != nil || o.res.Counters.Cycles != 42 {
			t.Errorf("queued job did not complete during drain: %+v, %v", o.res, o.err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain with queued jobs: %v", err)
	}
	if got := s.jobsDone.Value(); got != 3 {
		t.Errorf("jobsDone = %d, want 3", got)
	}
}

// TestRetryAfterDerivedFromLatency: the 429's Retry-After is modeled
// from the p95 job latency and the load ahead, and the JSON body
// carries the queue depth.
func TestRetryAfterDerivedFromLatency(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// Seed the latency histogram: every job takes 2s at p95.
	for i := 0; i < 3; i++ {
		s.latency.Observe(2_000_000)
	}

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s.runSim = fakeSim(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, size := range []int{1, 2} {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			postJob(t, ts, JobSpec{Microbench: size})
		}(size)
	}
	go func() { wg.Wait(); close(done) }()
	<-started
	waitFor(t, func() bool { return s.queue.Len() == 1 })

	code, hdr, body := postRaw(t, ts, "/v1/jobs", JobSpec{Microbench: 4})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload POST = %d, want 429", code)
	}
	// 1 queued + 1 in flight + this one = 3 jobs; p95 2s / 1 worker -> 6s.
	if got := hdr.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want %q (p95-derived)", got, "6")
	}
	if qd, _ := body["queue_depth"].(float64); qd != 1 {
		t.Errorf("429 body queue_depth = %v, want 1: %v", body["queue_depth"], body)
	}
	if ra, _ := body["retry_after_sec"].(float64); ra != 6 {
		t.Errorf("429 body retry_after_sec = %v, want 6: %v", body["retry_after_sec"], body)
	}

	close(release)
	<-done
}
