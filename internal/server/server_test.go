package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
)

// newTestServer builds a server with a small real worker pool. The
// caller must Drain it.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// batchResponse is the /v1/batch body writeResults writes.
type batchResponse struct {
	Results []JobResult `json:"results"`
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobResult, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return res, resp.StatusCode
}

// TestServiceCachesBitIdentically is the end-to-end acceptance check:
// the same job POSTed twice returns bit-identical results, the second
// served from the cache without re-simulating.
func TestServiceCachesBitIdentically(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Microbench: 4, SI: true, Yield: true}
	first, code := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("first POST = %d", code)
	}
	if first.Cached {
		t.Fatal("first run cannot be a cache hit")
	}
	if first.Counters.Cycles == 0 || first.Counters.IssuedInstrs == 0 {
		t.Fatalf("first run produced empty counters: %+v", first.Counters)
	}

	second, code := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("second POST = %d", code)
	}
	if !second.Cached {
		t.Fatal("identical second POST must be served from the cache")
	}
	if second.Counters != first.Counters {
		t.Errorf("cached counters differ from simulated ones:\n  first  %+v\n  second %+v",
			first.Counters, second.Counters)
	}
	if second.Key != first.Key || second.Policy != first.Policy || second.Blocks != first.Blocks {
		t.Errorf("cached metadata differs: %+v vs %+v", first, second)
	}

	m := s.MetricsSnapshot()
	if m.JobsDone != 1 {
		t.Errorf("JobsDone = %d, want exactly 1 simulation", m.JobsDone)
	}
	if m.Cache.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", m.Cache.Hits)
	}
}

// TestDifferentSpecsDifferentResults guards against over-aggressive
// keying: changing the policy must change the key and re-simulate.
func TestDifferentSpecsDifferentResults(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base, _ := postJob(t, ts, JobSpec{Microbench: 4})
	si, _ := postJob(t, ts, JobSpec{Microbench: 4, SI: true})
	if base.Key == si.Key {
		t.Fatal("baseline and SI jobs must have different cache keys")
	}
	if si.Cached {
		t.Error("a never-run spec cannot hit the cache")
	}
	if base.Counters.Cycles <= si.Counters.Cycles {
		t.Errorf("SI should shorten the divergence microbenchmark: baseline %d, SI %d",
			base.Counters.Cycles, si.Counters.Cycles)
	}
}

// fakeSim returns a runSim whose executions block until release is
// closed (or the job context ends), counting starts.
func fakeSim(started chan<- struct{}, release <-chan struct{}) func(context.Context, config.Config, *sm.Kernel) (gpu.Result, error) {
	return func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error) {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return gpu.Result{Config: cfg, Blocks: 1, Counters: stats.Counters{Cycles: 42}}, nil
		case <-ctx.Done():
			return gpu.Result{}, ctx.Err()
		}
	}
}

// TestQueueBackpressure fills the single worker and the queue, then
// expects 429 with Retry-After on the next submission.
func TestQueueBackpressure(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.runSim = fakeSim(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	// Distinct keys so they do not coalesce: one on the worker, one in
	// the queue.
	for _, size := range []int{1, 2} {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			if _, code := postJob(t, ts, JobSpec{Microbench: size}); code != http.StatusOK {
				t.Errorf("job %d = %d, want 200", size, code)
			}
		}(size)
	}
	<-started // worker is busy; the second job sits in the queue

	waitFor(t, func() bool { return s.queue.Len() == 1 })
	body, _ := json.Marshal(JobSpec{Microbench: 4})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}

	close(release)
	wg.Wait()
	if m := s.MetricsSnapshot(); m.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", m.Rejected)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobTimeout submits a job with a 1ms budget against a simulation
// that never finishes on its own; the job must be cancelled promptly
// and reported as a gateway timeout.
func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.runSim = fakeSim(nil, nil) // blocks until ctx.Done
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	_, code := postJob(t, ts, JobSpec{Microbench: 4, TimeoutMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out job = %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v; cancellation is not prompt", elapsed)
	}
	if m := s.MetricsSnapshot(); m.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", m.JobsFailed)
	}
}

// TestBatchCoalescesDuplicates posts one batch holding the same spec
// many times: exactly one simulation runs, every item gets the same
// result, and the duplicates are reported as coalesced or cached.
func TestBatchCoalescesDuplicates(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	var mu sync.Mutex
	sims := 0
	inner := s.runSim
	s.runSim = func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error) {
		mu.Lock()
		sims++
		mu.Unlock()
		return inner(ctx, cfg, k)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	req := batchRequest{}
	for i := 0; i < n; i++ {
		req.Jobs = append(req.Jobs, JobSpec{Microbench: 2, SI: true})
	}
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST = %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n {
		t.Fatalf("got %d results, want %d", len(br.Results), n)
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("item %d failed: %s", i, r.Error)
		}
		if r.Counters != br.Results[0].Counters {
			t.Errorf("item %d counters differ from item 0", i)
		}
	}
	if sims != 1 {
		t.Errorf("batch of %d identical jobs ran %d simulations, want 1", n, sims)
	}
}

// TestBatchMixedValidity: invalid items fail item-locally without
// sinking the batch.
func TestBatchMixedValidity(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := batchRequest{Jobs: []JobSpec{
		{Microbench: 2},
		{App: "NoSuchApp"},
	}}
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Error != "" || br.Results[0].Counters.Cycles == 0 {
		t.Errorf("valid item must succeed: %+v", br.Results[0])
	}
	if br.Results[1].Error == "" {
		t.Error("invalid item must carry an error")
	}
}

// runnerFunc adapts a function to Runner.
type runnerFunc func(context.Context, Request) (JobResult, error)

func (f runnerFunc) Run(ctx context.Context, req Request) (JobResult, error) { return f(ctx, req) }

// TestBatchWindowStampsAbandoned: with a window of one, the first entry
// holds the only slot until the batch's context is cancelled; every
// entry that never started comes back in place as a structured 408, and
// none is left empty.
func TestBatchWindowStampsAbandoned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var calls atomic.Int64
	run := runnerFunc(func(ctx context.Context, req Request) (JobResult, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-ctx.Done()
		return JobResult{}, Abandoned(ctx)
	})
	specs := []JobSpec{{Microbench: 1}, {Microbench: 2}, {Microbench: 4}, {Microbench: 8}}
	done := make(chan []JobResult)
	go func() { done <- fanOut(ctx, run, specs, 1) }()
	<-started
	cancel()
	results := <-done

	if n := calls.Load(); n != 1 {
		t.Errorf("%d entries started, want 1 (the window holds one)", n)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d entries", len(results), len(specs))
	}
	for i, r := range results {
		if r.Workload != specs[i].WorkloadID() || r.ErrorStatus != http.StatusRequestTimeout {
			t.Errorf("entry %d = %+v, want a 408 for %s", i, r, specs[i].WorkloadID())
		}
		if i > 0 && !strings.HasPrefix(r.Error, "batch abandoned: ") {
			t.Errorf("entry %d error %q, want batch abandoned", i, r.Error)
		}
	}
}

// TestAbandonedFlightIsCancelled: when the only waiter disconnects,
// the in-flight simulation's context must be cancelled.
func TestAbandonedFlightIsCancelled(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	started := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	s.runSim = func(ctx context.Context, cfg config.Config, k *sm.Kernel) (gpu.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		cancelled <- struct{}{}
		return gpu.Result{}, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, JobSpec{Microbench: 4})
		errc <- err
	}()
	<-started
	cancel() // the only client goes away

	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned simulation was not cancelled")
	}
	if err := <-errc; err == nil || errStatus(err) != http.StatusRequestTimeout {
		t.Errorf("abandoned submit error = %v", err)
	}
}

// TestDrainRejectsAndFinishes: draining finishes in-flight work, then
// refuses new jobs and reports unhealthy.
func TestDrainRejectsAndFinishes(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.runSim = fakeSim(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resc := make(chan JobResult, 1)
	go func() {
		res, _ := postJob(t, ts, JobSpec{Microbench: 2})
		resc <- res
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })

	// While draining: health is 503 and new jobs are refused.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if _, code := postJob(t, ts, JobSpec{Microbench: 4}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}

	close(release) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res := <-resc; res.Counters.Cycles != 42 {
		t.Errorf("in-flight job must complete during drain: %+v", res)
	}
}

// TestDrainDeadlineCancelsJobs: when the drain budget expires, stuck
// jobs are cancelled instead of wedging shutdown.
func TestDrainDeadlineCancelsJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{}, 1)
	s.runSim = fakeSim(started, nil) // never finishes on its own

	go s.Submit(context.Background(), JobSpec{Microbench: 2})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain past deadline must report the cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain took %v after a 50ms budget", elapsed)
	}
}

// TestHealthzAndMetricsEndpoints sanity-checks the observability
// surface.
func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	postJob(t, ts, JobSpec{Microbench: 2})
	postJob(t, ts, JobSpec{Microbench: 2})

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.JobsTotal != 2 || m.JobsDone != 1 || m.Cache.Hits != 1 {
		t.Errorf("metrics = total %d done %d hits %d, want 2/1/1",
			m.JobsTotal, m.JobsDone, m.Cache.Hits)
	}
	if m.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", m.CacheHitRate)
	}
	if m.LatencyP50MS <= 0 {
		t.Errorf("p50 latency = %v, want > 0", m.LatencyP50MS)
	}
	if m.Workers != 1 || m.QueueCap != 64 {
		t.Errorf("workers/queue = %d/%d", m.Workers, m.QueueCap)
	}
	// One real simulation completed, so the throughput gauges must be
	// live: cycles accumulated and a positive cycles/sec rate.
	if m.SimCyclesTotal <= 0 {
		t.Errorf("sim_cycles_total = %d, want > 0 after a completed job", m.SimCyclesTotal)
	}
	if m.SimCyclesPerSecond <= 0 {
		t.Errorf("sim_cycles_per_second = %v, want > 0 after a completed job", m.SimCyclesPerSecond)
	}
}

// TestBadRequests covers the HTTP validation paths.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MaxBatch: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	oversized := `{"assembly":"` + strings.Repeat("A", MaxBodyBytes) + `"}`
	for name, tc := range map[string]struct {
		path, body string
		want       int
	}{
		"malformed json":   {"/v1/jobs", "{", http.StatusBadRequest},
		"no workload":      {"/v1/jobs", "{}", http.StatusBadRequest},
		"both workloads":   {"/v1/jobs", `{"app":"BFV1","microbench":4}`, http.StatusBadRequest},
		"unknown app":      {"/v1/jobs", `{"app":"Nope"}`, http.StatusBadRequest},
		"bad trigger":      {"/v1/jobs", `{"microbench":4,"si":true,"trigger":"most"}`, http.StatusBadRequest},
		"si and dws":       {"/v1/jobs", `{"microbench":4,"si":true,"dws":true}`, http.StatusBadRequest},
		"negative timeout": {"/v1/jobs", `{"microbench":4,"timeout_ms":-1}`, http.StatusBadRequest},
		"empty batch":      {"/v1/batch", `{"jobs":[]}`, http.StatusBadRequest},
		"oversized batch":  {"/v1/batch", `{"jobs":[{"microbench":1},{"microbench":2},{"microbench":4}]}`, http.StatusBadRequest},
		// One bounded read in front of every decode: a body past
		// MaxBodyBytes is a structured 413 on each endpoint, not a
		// buffered-then-assembled 400 or a truncated-JSON syntax error.
		"oversized job":        {"/v1/jobs", oversized, http.StatusRequestEntityTooLarge},
		"oversized batch body": {"/v1/batch", oversized, http.StatusRequestEntityTooLarge},
		"oversized submit":     {"/v1/submit", oversized, http.StatusRequestEntityTooLarge},
		"get on job route":     {"/v1/jobs", "", http.StatusMethodNotAllowed},
		"unknown route":        {"/v1/nope", `{}`, http.StatusNotFound},
	} {
		t.Run(name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.body == "" {
				resp, err = ts.Client().Get(ts.URL + tc.path)
			} else {
				resp, err = ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %.60q = %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusRequestEntityTooLarge {
				var body map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == nil ||
					body["max_body_bytes"] != float64(MaxBodyBytes) {
					t.Errorf("413 body = %v (%v), want error and max_body_bytes=%d", body, err, MaxBodyBytes)
				}
			}
		})
	}
}

// TestAppsEndpoint lists the application catalogue.
func TestAppsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apps []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) == 0 {
		t.Fatal("apps catalogue is empty")
	}
}

// TestSpecValidation exercises JobSpec.Validate directly.
func TestSpecValidation(t *testing.T) {
	valid := []JobSpec{
		{Microbench: 4},
		{Microbench: 32, SI: true, Yield: true, Trigger: "all", Order: "largest"},
		{App: "BFV1", DWS: true},
		{Microbench: 1, SI: true, MaxSubwarps: 2, LatencyCycles: 300, WarpSlots: 16},
		{Workload: "gemm"},
		{Workload: "bfs", SI: true, Yield: true},
		{Workload: "texture", Policy: "wasp"},
		{Microbench: 4, Policy: "gto"},
		{App: "BFV1", Policy: "LRR"},
	}
	for _, spec := range valid {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
	invalid := []JobSpec{
		{},
		{Microbench: 3},
		{Microbench: -1},
		{Microbench: 4, App: "BFV1"},
		{Microbench: 4, SI: true, DWS: true},
		{Microbench: 4, Order: "sideways"},
		{Microbench: 4, Trigger: "sometimes"},
		{Microbench: 4, WarpSlots: -2},
		{App: "NotAnApp"},
		{Workload: "nosuch"},
		{Workload: "gemm", App: "BFV1"},
		{Workload: "gemm", Microbench: 4},
		{Workload: "gemm", App: "BFV1", Microbench: 4},
		{Microbench: 4, Policy: "fifo"},
	}
	for _, spec := range invalid {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		}
	}
}

// TestSpecConfigKnobs checks the spec-to-config translation.
func TestSpecConfigKnobs(t *testing.T) {
	cfg, err := JobSpec{
		Microbench: 4, SI: true, Yield: true, Trigger: "any",
		LatencyCycles: 300, WarpSlots: 16, MaxSubwarps: 2, Order: "random",
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.SI.Enabled || !cfg.SI.Yield || cfg.SI.Trigger != config.TriggerAnyStalled {
		t.Errorf("SI knobs not applied: %+v", cfg.SI)
	}
	if cfg.L1MissLatency != 300 || cfg.WarpSlotsPerBlock != 16 ||
		cfg.SI.MaxSubwarps != 2 || cfg.Order != config.OrderRandom {
		t.Errorf("architecture knobs not applied: lat=%d slots=%d max=%d order=%d",
			cfg.L1MissLatency, cfg.WarpSlotsPerBlock, cfg.SI.MaxSubwarps, cfg.Order)
	}

	dws, err := JobSpec{App: "BFV1", DWS: true}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !dws.SI.DWS {
		t.Error("DWS knob not applied")
	}
	if got := (JobSpec{App: "BFV1", DWS: true}).WorkloadID(); got != "app/BFV1" {
		t.Errorf("WorkloadID = %q", got)
	}
	if got := (JobSpec{Microbench: 8}).WorkloadID(); got != "micro/8" {
		t.Errorf("WorkloadID = %q", got)
	}

	for policy, want := range map[string]config.SchedPolicy{
		"": config.SchedLRR, "lrr": config.SchedLRR,
		"gto": config.SchedGTO, "wasp": config.SchedWaSP,
	} {
		cfg, err := JobSpec{Microbench: 4, Policy: policy}.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SchedPolicy != want {
			t.Errorf("Policy=%q → SchedPolicy=%v, want %v", policy, cfg.SchedPolicy, want)
		}
	}
}

// TestSpecWorkloadGenerators checks the generator-family workload kind:
// kernels build, and the cache-key workload ID is namespaced away from
// apps and microbenchmarks.
func TestSpecWorkloadGenerators(t *testing.T) {
	spec := JobSpec{Workload: "gemm", Policy: "gto"}
	if got := spec.WorkloadID(); got != "gen/gemm" {
		t.Errorf("WorkloadID = %q, want gen/gemm", got)
	}
	k, err := spec.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	if k == nil || len(k.Program.Code) == 0 {
		t.Fatal("BuildKernel returned an empty kernel")
	}
	if _, err := (JobSpec{Workload: "nosuch"}).BuildKernel(); err == nil {
		t.Error("unknown generator must fail to build")
	}
}

// TestServiceWorkloadPolicyJobs drives generator-family jobs through
// the HTTP surface: the scheduler policy must key the cache (LRR and
// GTO runs of the same family are distinct entries) and an unknown
// family must be a client error, not a 500.
func TestServiceWorkloadPolicyJobs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lrr, code := postJob(t, ts, JobSpec{Workload: "bfs"})
	if code != http.StatusOK {
		t.Fatalf("lrr POST = %d", code)
	}
	gto, code := postJob(t, ts, JobSpec{Workload: "bfs", Policy: "gto"})
	if code != http.StatusOK {
		t.Fatalf("gto POST = %d", code)
	}
	if lrr.Key == gto.Key {
		t.Error("scheduler policy must be part of the cache key")
	}
	if gto.Cached {
		t.Error("a never-run policy cell cannot hit the cache")
	}
	if lrr.Counters.Cycles == 0 || gto.Counters.Cycles == 0 {
		t.Fatalf("empty counters: lrr %+v gto %+v", lrr.Counters, gto.Counters)
	}

	if _, code := postJob(t, ts, JobSpec{Workload: "nosuch"}); code != http.StatusBadRequest {
		t.Errorf("unknown workload POST = %d, want %d", code, http.StatusBadRequest)
	}
}

// TestCompileEngineChoice pins what is left of the retired per-job
// engine knob: the serving layer no longer selects an execution regime,
// but request decoding ignores unknown fields, so a client still
// sending "compile":"off" is served — a fresh simulation with the same
// key and bit-identical counters as the plain spec, which then hits the
// entry the legacy body stored.
func TestCompileEngineChoice(t *testing.T) {
	post := func(ts *httptest.Server, body string) JobResult {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d", body, resp.StatusCode)
		}
		var res JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	serve := func() *httptest.Server {
		ts := httptest.NewServer(newTestServer(t, Options{Workers: 2}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	plain := post(serve(), `{"microbench":4,"si":true}`)
	ts := serve()
	legacy := post(ts, `{"microbench":4,"si":true,"compile":"off"}`)
	if plain.Cached || legacy.Cached || plain.Counters.Cycles == 0 {
		t.Fatalf("expected two fresh simulations: plain cached=%v legacy cached=%v counters=%+v",
			plain.Cached, legacy.Cached, plain.Counters)
	}
	if legacy.Key != plain.Key || legacy.Counters != plain.Counters {
		t.Errorf("\"compile\":\"off\" changed the answer:\n  plain  %s %+v\n  legacy %s %+v",
			plain.Key, plain.Counters, legacy.Key, legacy.Counters)
	}
	if again := post(ts, `{"microbench":4,"si":true}`); !again.Cached || again.Counters != legacy.Counters {
		t.Errorf("plain re-POST after the legacy body: cached=%v counters=%+v, want a hit on %+v",
			again.Cached, again.Counters, legacy.Counters)
	}
}
