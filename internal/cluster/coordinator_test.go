package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subwarpsim/internal/faults"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
)

// testCluster is a coordinator fronting n real worker daemons, all
// in-process via httptest.
type testCluster struct {
	co       *Coordinator
	front    *httptest.Server
	local    *server.Server
	workers  []*server.Server
	workerTS []*httptest.Server
}

// newTestCluster builds the cluster. wopts customizes each worker's
// server options (nil for defaults), wrap optionally interposes on a
// worker's handler (fault injection), mod tweaks coordinator options.
func newTestCluster(t testing.TB, n int, wopts func(int) server.Options,
	wrap func(int, http.Handler) http.Handler, mod func(*Options)) *testCluster {
	t.Helper()
	c := &testCluster{}
	peers := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var o server.Options
		if wopts != nil {
			o = wopts(i)
		}
		w := server.New(o)
		h := http.Handler(w.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		c.workers = append(c.workers, w)
		c.workerTS = append(c.workerTS, ts)
		peers = append(peers, ts.URL)
	}
	shared := obs.New(server.MetricsNamespace, 256, 64, nil)
	c.local = server.New(server.Options{Workers: 1, Obs: shared})
	opts := Options{Peers: peers, Local: c.local, Obs: shared}
	if mod != nil {
		mod(&opts)
	}
	co, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.co = co
	c.front = httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		c.front.Close()
		for _, ts := range c.workerTS {
			ts.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.local.Drain(ctx)
		for _, w := range c.workers {
			w.Drain(ctx)
		}
	})
	return c
}

// postVia posts one job spec to base/v1/jobs and decodes the result.
func postVia(t testing.TB, base string, spec server.JobSpec, hdr map[string]string) (server.JobResult, int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var res server.JobResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("undecodable 200 body: %v: %s", err, raw)
		}
	} else {
		res.Error = string(raw)
	}
	return res, resp.StatusCode, resp.Header
}

// postBatch posts a batch and decodes the results slice.
func postBatch(t testing.TB, base string, specs []server.JobSpec) ([]server.JobResult, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"jobs": specs})
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []server.JobResult `json:"results"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Results, resp.StatusCode
}

// distinctSpecs returns n job specs with n distinct content keys
// (latency variation changes the cache key).
func distinctSpecs(n int) []server.JobSpec {
	specs := make([]server.JobSpec, n)
	for i := range specs {
		specs[i] = server.JobSpec{Microbench: 4, SI: true, LatencyCycles: 100 + 10*i}
	}
	return specs
}

// homedSpecs returns n distinct specs whose ring home is the named
// peer — tests that need traffic on a SPECIFIC peer cannot trust a
// random key sample to land there.
func homedSpecs(t testing.TB, c *testCluster, peer string, n int) []server.JobSpec {
	t.Helper()
	var out []server.JobSpec
	for lat := 100; lat < 5000 && len(out) < n; lat += 10 {
		spec := server.JobSpec{Microbench: 4, SI: true, LatencyCycles: lat}
		h, ok := c.co.jobHash(spec)
		if !ok {
			t.Fatalf("spec %+v did not hash", spec)
		}
		if c.co.ring.Preference(h)[0] == peer {
			out = append(out, spec)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d specs homed on %s", len(out), n, peer)
	}
	return out
}

// TestClusterCacheAffinity is the tentpole property: content-hash
// routing concentrates each key on one worker, so the cluster's
// aggregate memory-LRU capacity serves a working set no single node
// can hold. 18 distinct keys against 3 workers with 8-entry caches:
// the second pass hits every time, while the same sweep against one
// 8-entry node thrashes to zero hits.
func TestClusterCacheAffinity(t *testing.T) {
	const keys = 18
	cacheCap := func(int) server.Options {
		return server.Options{Workers: 1, Cache: simcache.NewMemory(8)}
	}
	c := newTestCluster(t, 3, cacheCap, nil, nil)
	// Pick 6 keys homed on each worker: the point is that each node's
	// 8-entry cache holds ITS shard of the working set. (A random 18-key
	// sample can put >8 keys on one worker, which would thrash that
	// node's LRU and muddy the property under test.)
	var specs []server.JobSpec
	for _, ts := range c.workerTS {
		specs = append(specs, homedSpecs(t, c, peerName(ts.URL), keys/3)...)
	}

	for _, spec := range specs {
		if _, code, _ := postVia(t, c.front.URL, spec, nil); code != http.StatusOK {
			t.Fatalf("first pass POST = %d", code)
		}
	}
	hits := 0
	for _, spec := range specs {
		res, code, _ := postVia(t, c.front.URL, spec, nil)
		if code != http.StatusOK {
			t.Fatalf("second pass POST = %d", code)
		}
		if res.Cached {
			hits++
		}
	}
	if hits != keys {
		t.Errorf("cluster second pass: %d/%d cache hits, want all (affinity broken)", hits, keys)
	}
	var simulated int64
	for _, w := range c.workers {
		simulated += w.MetricsSnapshot().JobsDone
	}
	if simulated != keys {
		t.Errorf("workers simulated %d jobs for %d keys, want exactly one each", simulated, keys)
	}

	// Single-node baseline: same sweep, same per-node cache capacity.
	// Sequentially scanning 18 keys through an 8-entry LRU evicts every
	// key before its second use.
	single := server.New(server.Options{Workers: 1, Cache: simcache.NewMemory(8)})
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		single.Drain(ctx)
	}()
	for _, spec := range specs {
		postVia(t, ts.URL, spec, nil)
	}
	singleHits := 0
	for _, spec := range specs {
		if res, _, _ := postVia(t, ts.URL, spec, nil); res.Cached {
			singleHits++
		}
	}
	if singleHits >= hits {
		t.Errorf("single-node second pass got %d hits, cluster %d — affinity should beat one node's LRU", singleHits, hits)
	}
}

// TestClusterRerouteOnDeadPeer: a peer answering 502 trips its breaker
// and its keys reroute to ring successors; every request still
// succeeds with real results.
func TestClusterRerouteOnDeadPeer(t *testing.T) {
	dead := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusBadGateway)
		})
	}
	c := newTestCluster(t, 2, nil, dead, func(o *Options) { o.TripAfter = 2 })

	// Ephemeral ports make the key distribution run-dependent, so pick
	// specs that provably home on the dead peer (plus a few that do
	// not) instead of trusting 8 random keys to land there.
	deadHome := homedSpecs(t, c, peerName(c.workerTS[0].URL), 4)
	liveHome := homedSpecs(t, c, peerName(c.workerTS[1].URL), 2)
	for _, spec := range append(deadHome, liveHome...) {
		res, code, _ := postVia(t, c.front.URL, spec, nil)
		if code != http.StatusOK {
			t.Fatalf("POST with one dead peer = %d (%s)", code, res.Error)
		}
		if res.Counters.Cycles == 0 {
			t.Fatal("rerouted job returned empty counters")
		}
	}
	if c.co.reroutes.Value() == 0 {
		t.Error("no reroutes recorded despite a dead peer")
	}
	deadName := peerName(c.workerTS[0].URL)
	if st := c.co.peers[deadName].br.State(); st != simcache.BreakerOpen {
		t.Errorf("dead peer breaker = %v, want open", st)
	}
}

// TestClusterAllPeersDeadLocalFallback: with every peer down the
// coordinator serves locally — the degradation ladder's last rung —
// and still returns a real simulation result.
func TestClusterAllPeersDeadLocalFallback(t *testing.T) {
	dead := func(int, http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		})
	}
	c := newTestCluster(t, 2, nil, dead, func(o *Options) { o.TripAfter = 1 })

	res, code, _ := postVia(t, c.front.URL, server.JobSpec{Microbench: 4, SI: true}, nil)
	if code != http.StatusOK {
		t.Fatalf("POST with all peers dead = %d", code)
	}
	if res.Counters.Cycles == 0 {
		t.Fatal("local fallback returned empty counters")
	}
	if c.co.fallbacks.Value() == 0 {
		t.Error("local fallback not recorded")
	}
	if c.local.MetricsSnapshot().JobsDone == 0 {
		t.Error("local server simulated nothing; fallback did not reach it")
	}
}

// TestCluster429Relay: a saturated peer's structured backpressure
// crosses the hop intact — queue depths, queue_wait_p95_ms and
// retry_after_sec included — and the Retry-After header follows from
// it even when the peer sent none, so clients back off identically
// against either topology.
func TestCluster429Relay(t *testing.T) {
	body429 := `{"error":"queue full","tenant":"acme","queue_depth":64,"queue_cap":64,` +
		`"tenant_queue_depth":9,"queue_wait_p95_ms":12.5,"retry_after_sec":7}`
	throttled := func(int, http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, body429)
		})
	}
	c := newTestCluster(t, 1, nil, throttled, nil)

	res, code, hdr := postVia(t, c.front.URL, server.JobSpec{Microbench: 4}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if got := hdr.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7 (from retry_after_sec)", got)
	}
	for _, field := range []string{"queue_wait_p95_ms", "tenant_queue_depth", "retry_after_sec", "queue full"} {
		if !strings.Contains(res.Error, field) {
			t.Errorf("relayed 429 body missing %q: %s", field, res.Error)
		}
	}
	// 429 means alive-but-saturated: the breaker must NOT have tripped.
	name := peerName(c.workerTS[0].URL)
	if st := c.co.peers[name].br.State(); st != simcache.BreakerClosed {
		t.Errorf("throttled peer breaker = %v, want closed", st)
	}
}

// TestClusterHedgedRequest: when the primary dawdles past HedgeAfter,
// a duplicate fires to the next ring node and the first answer wins —
// sound only because answers are bit-identical.
func TestClusterHedgedRequest(t *testing.T) {
	delays := make([]atomic.Int64, 2) // per-worker delay in ms
	slowable := func(i int, h http.Handler) http.Handler {
		d := &delays[i]
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ms := d.Load(); ms > 0 {
				time.Sleep(time.Duration(ms) * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	}
	c := newTestCluster(t, 2, nil, slowable, func(o *Options) { o.HedgeAfter = 20 * time.Millisecond })

	spec := server.JobSpec{Microbench: 4, SI: true}
	h, ok := c.co.jobHash(spec)
	if !ok {
		t.Fatal("spec did not hash")
	}
	primary := c.co.ring.Preference(h)[0]
	for i, ts := range c.workerTS {
		if peerName(ts.URL) == primary {
			delays[i].Store(500)
		}
	}

	start := time.Now()
	res, code, _ := postVia(t, c.front.URL, spec, nil)
	if code != http.StatusOK {
		t.Fatalf("hedged POST = %d", code)
	}
	if res.Counters.Cycles == 0 {
		t.Fatal("hedged job returned empty counters")
	}
	if c.co.hedges.Value() == 0 {
		t.Error("no hedge recorded despite a slow primary")
	}
	if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
		t.Errorf("hedged request took %v; the fast secondary should have answered first", elapsed)
	}
}

// TestClusterBatchWorkStealing: a lagging peer's queued shards migrate
// to the idle peer instead of waiting behind it.
func TestClusterBatchWorkStealing(t *testing.T) {
	var slowMS atomic.Int64
	slowMS.Store(150)
	laggy := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(time.Duration(slowMS.Load()) * time.Millisecond)
			h.ServeHTTP(w, r)
		})
	}
	c := newTestCluster(t, 2, nil, laggy, func(o *Options) { o.Window = 1 })

	// Force the imbalance the steal path exists for: 8 shards homed on
	// the laggy peer, 2 on the fast one. The fast runner drains its own
	// two and must then steal from the laggy backlog.
	specs := append(homedSpecs(t, c, peerName(c.workerTS[0].URL), 8),
		homedSpecs(t, c, peerName(c.workerTS[1].URL), 2)...)
	results, code := postBatch(t, c.front.URL, specs)
	if code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	for i, r := range results {
		if r.Failed() {
			t.Errorf("entry %d failed: %s", i, r.Error)
		}
	}
	if c.co.steals.Value() == 0 {
		t.Error("no work stealing despite a lagging peer and Window=1")
	}
}

// TestClusterBatchDifferentialKillOneMidSweep is the acceptance check:
// a matrix sweep through a 3-worker cluster — with one worker dying
// partway through — returns results bit-identical to the same sweep on
// a single node, in the same order, with no entry lost.
func TestClusterBatchDifferentialKillOneMidSweep(t *testing.T) {
	// Reference: one plain node runs the matrix.
	ref := server.New(server.Options{Workers: 2})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ref.Drain(ctx)
	}()

	var specs []server.JobSpec
	for _, mb := range []int{2, 4, 8} {
		for _, si := range []bool{false, true} {
			for _, pol := range []string{"lrr", "gto"} {
				specs = append(specs, server.JobSpec{Microbench: mb, SI: si, Policy: pol})
			}
		}
	}
	want, code := postBatch(t, refTS.URL, specs)
	if code != http.StatusOK || len(want) != len(specs) {
		t.Fatalf("reference batch = %d with %d results", code, len(want))
	}

	// Cluster: worker 0 dies after its first two requests.
	var served atomic.Int64
	killable := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 2 {
				http.Error(w, `{"error":"killed"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	c := newTestCluster(t, 3, nil, killable, func(o *Options) { o.TripAfter = 1; o.Window = 2 })

	got, code := postBatch(t, c.front.URL, specs)
	if code != http.StatusOK {
		t.Fatalf("cluster batch = %d", code)
	}
	if len(got) != len(want) {
		t.Fatalf("cluster batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Failed() {
			t.Errorf("entry %d failed despite reroute: %s", i, got[i].Error)
			continue
		}
		if got[i].Key != want[i].Key {
			t.Errorf("entry %d key %s != reference %s (order broken?)", i, got[i].Key, want[i].Key)
		}
		if got[i].Counters != want[i].Counters {
			t.Errorf("entry %d counters differ from single-node reference:\n  cluster %+v\n  single  %+v",
				i, got[i].Counters, want[i].Counters)
		}
		if got[i].Policy != want[i].Policy || got[i].Blocks != want[i].Blocks {
			t.Errorf("entry %d metadata differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if served.Load() <= 2 {
		t.Skip("worker 0 received no traffic before the kill point; kill path not exercised")
	}
}

// TestClusterBatchStructuredEntryErrors: invalid entries come back as
// the same structured per-entry errors the single node produces, in
// place, without failing the batch.
func TestClusterBatchStructuredEntryErrors(t *testing.T) {
	c := newTestCluster(t, 2, nil, nil, nil)
	specs := []server.JobSpec{
		{Microbench: 4},
		{Microbench: 4, App: "bad-both"}, // two workload selectors: invalid
		{Microbench: 4, SI: true},
		{}, // no workload selector: invalid
	}
	results, code := postBatch(t, c.front.URL, specs)
	if code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, i := range []int{0, 2} {
		if results[i].Failed() {
			t.Errorf("valid entry %d failed: %s", i, results[i].Error)
		}
	}
	for _, i := range []int{1, 3} {
		if !results[i].Failed() {
			t.Errorf("invalid entry %d did not fail", i)
			continue
		}
		if results[i].ErrorStatus != http.StatusBadRequest {
			t.Errorf("invalid entry %d ErrorStatus = %d, want 400", i, results[i].ErrorStatus)
		}
	}
}

// TestClusterTraceAcrossHops: one X-Trace-ID spans the coordinator's
// routing and the worker's execution — the coordinator's trace shows
// the peer hop span, and the worker retained a trace under the same ID.
func TestClusterTraceAcrossHops(t *testing.T) {
	c := newTestCluster(t, 2, nil, nil, nil)
	const id = "cluster-trace-0001"
	_, code, hdr := postVia(t, c.front.URL, server.JobSpec{Microbench: 4}, map[string]string{"X-Trace-ID": id})
	if code != http.StatusOK {
		t.Fatalf("POST = %d", code)
	}
	if got := hdr.Get("X-Trace-ID"); got != id {
		t.Errorf("echoed trace ID = %q, want %q", got, id)
	}

	resp, err := http.Get(c.front.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator /debug/traces/%s = %d", id, resp.StatusCode)
	}
	for _, span := range []string{"coordinator POST /v1/jobs", "peer "} {
		if !strings.Contains(string(body), span) {
			t.Errorf("coordinator trace missing %q span:\n%s", span, body)
		}
	}

	// The worker that executed the job retained the same ID.
	found := false
	for _, ts := range c.workerTS {
		resp, err := http.Get(ts.URL + "/debug/traces/" + id)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				found = true
			}
			resp.Body.Close()
		}
	}
	if !found {
		t.Error("no worker retained the propagated trace ID")
	}
}

// TestClusterEndpointAndMetrics: GET /cluster reports ring shares and
// breaker states; the shared /metrics exposition carries the per-peer
// and cluster series next to the local node's.
func TestClusterEndpointAndMetrics(t *testing.T) {
	c := newTestCluster(t, 3, nil, nil, nil)
	if _, code, _ := postVia(t, c.front.URL, server.JobSpec{Microbench: 4}, nil); code != http.StatusOK {
		t.Fatalf("warm-up POST = %d", code)
	}

	resp, err := http.Get(c.front.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report struct {
		Self  string `json:"self"`
		Peers []struct {
			Name      string  `json:"name"`
			State     string  `json:"breaker_state"`
			RingShare float64 `json:"ring_share"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if len(report.Peers) != 3 {
		t.Fatalf("/cluster lists %d peers, want 3", len(report.Peers))
	}
	var share float64
	for _, p := range report.Peers {
		if p.State != "closed" {
			t.Errorf("peer %s breaker %q, want closed", p.Name, p.State)
		}
		share += p.RingShare
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("ring shares sum to %v, want 1", share)
	}

	req, _ := http.NewRequest(http.MethodGet, c.front.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, series := range []string{
		server.MetricsNamespace + "_peer_requests_total{",
		server.MetricsNamespace + "_peer_breaker_state{",
		server.MetricsNamespace + "_ring_ownership{",
		server.MetricsNamespace + "_cluster_steals_total",
		server.MetricsNamespace + "_cluster_local_fallback_total",
	} {
		if !strings.Contains(string(text), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if !strings.Contains(string(text), `outcome="ok"`) {
		t.Error("/metrics missing outcome-labelled peer series")
	}
}

// spinAsm never exits; only the gas meter stops it.
const spinAsm = `
.regs 8
    S2R R0, SR3
    SHL R0, R0, 8
loop:
    STG [R0+0], R0
    IADD R0, R0, 4
    BRA loop
`

// addAsm is a minimal well-formed submission.
const addAsm = `
.regs 8
    S2R R0, SR3
    SHL R1, R0, 2
    IADD R2, R0, R0
    STG [R1+0], R2
    EXIT
`

// postRaw posts body to base+path and returns status, headers and the
// decoded JSON object.
func postRaw(t testing.TB, base, path string, body []byte) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: undecodable body (status %d): %v", path, resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, m
}

// TestClusterErrorParity: every class of failure reads the same through
// the coordinator as from the node it came from — status, Retry-After
// and the decoded body with all its extra fields — and, where the
// failing request can be a /v1/batch entry, the entry carries the same
// error, error_status and error_extra on both topologies. The typed
// server.Error crossing the hop is what guarantees it; this table is
// what notices if a class ever stops crossing it intact.
func TestClusterErrorParity(t *testing.T) {
	job := func(spec server.JobSpec) []byte { b, _ := json.Marshal(spec); return b }
	sub := func(sp server.SubmitSpec) []byte { b, _ := json.Marshal(sp); return b }

	for _, tc := range []struct {
		name   string
		worker server.Options
		faults string // fault spec armed on the worker, "" for none
		// prime puts the worker into the failing state, returning what
		// undoes it (nil when nothing needs undoing).
		prime  func(t *testing.T, in *faults.Injector, worker *server.Server, url string) func()
		path   string
		body   []byte
		status int
		extra  []string // fields the body must carry besides "error"
		batch  bool     // body is a JobSpec: also compare it as a batch entry
	}{
		{
			name: "invalid spec", path: "/v1/jobs",
			body:   job(server.JobSpec{Microbench: 4, App: "matmul"}),
			status: http.StatusBadRequest, batch: true,
		},
		{
			name: "admission reject", path: "/v1/submit",
			body:   sub(server.SubmitSpec{Assembly: ".regs 8\n    IADD R0, R0, 1\n"}),
			status: http.StatusBadRequest, extra: []string{"reason", "pc"},
		},
		{
			name: "budget kill", path: "/v1/submit",
			body:   sub(server.SubmitSpec{Assembly: spinAsm, MaxCycles: 3000}),
			status: http.StatusUnprocessableEntity,
			extra:  []string{"budget_exhausted", "limit", "used", "cycle"},
		},
		{
			name:   "quarantine",
			faults: faults.SiteServerExec + "=panic(n=1)",
			prime: func(t *testing.T, _ *faults.Injector, _ *server.Server, url string) func() {
				// The first run panics and quarantines the key.
				if code, _, body := postRaw(t, url, "/v1/jobs", job(server.JobSpec{Microbench: 2})); code != http.StatusInternalServerError {
					t.Fatalf("priming panic = %d %v, want 500", code, body)
				}
				return nil
			},
			path: "/v1/jobs", body: job(server.JobSpec{Microbench: 2}),
			status: http.StatusUnprocessableEntity, extra: []string{"quarantined", "key"}, batch: true,
		},
		{
			name:   "queue full",
			worker: server.Options{Workers: 1, QueueDepth: 1},
			faults: faults.SiteServerExec + "=latency(d=1h,n=2)",
			prime: func(t *testing.T, in *faults.Injector, worker *server.Server, url string) func() {
				// The injected latency becomes a gate: one job holds the
				// worker, one the queue slot, until the case is over.
				release := make(chan struct{})
				in.SleepFn = func(time.Duration) { <-release }
				var held sync.WaitGroup
				for _, size := range []int{8, 16} {
					held.Add(1)
					go func(size int) {
						defer held.Done()
						// Not postRaw: t.Fatal is not for this goroutine.
						resp, err := http.Post(url+"/v1/jobs", "application/json",
							bytes.NewReader(job(server.JobSpec{Microbench: size})))
						if err != nil {
							t.Errorf("holder %d: %v", size, err)
							return
						}
						resp.Body.Close()
					}(size)
				}
				deadline := time.Now().Add(10 * time.Second)
				for m := worker.MetricsSnapshot(); m.JobsInFlight != 1 || m.QueueDepth != 1; m = worker.MetricsSnapshot() {
					if time.Now().After(deadline) {
						t.Fatalf("worker never saturated: %+v", m)
					}
					time.Sleep(time.Millisecond)
				}
				return func() { close(release); held.Wait() }
			},
			path: "/v1/jobs", body: job(server.JobSpec{Microbench: 2}),
			status: http.StatusTooManyRequests,
			extra:  []string{"tenant", "queue_depth", "queue_cap", "queue_wait_p95_ms", "retry_after_sec"},
			batch:  true,
		},
		{
			name: "oversized body", path: "/v1/submit",
			body:   sub(server.SubmitSpec{Assembly: strings.Repeat("A", server.MaxBodyBytes)}),
			status: http.StatusRequestEntityTooLarge, extra: []string{"max_body_bytes"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := faults.Parse(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			tc.worker.Faults = in
			c := newTestCluster(t, 1, func(int) server.Options { return tc.worker }, nil, nil)
			node := c.workerTS[0].URL
			if tc.prime != nil {
				if undo := tc.prime(t, in, c.workers[0], node); undo != nil {
					defer undo()
				}
			}

			wantCode, wantHdr, want := postRaw(t, node, tc.path, tc.body)
			gotCode, gotHdr, got := postRaw(t, c.front.URL, tc.path, tc.body)
			if wantCode != tc.status {
				t.Fatalf("single node = %d %v, want %d", wantCode, want, tc.status)
			}
			for _, field := range append([]string{"error"}, tc.extra...) {
				if _, ok := want[field]; !ok {
					t.Errorf("single-node body missing %q: %v", field, want)
				}
			}
			if gotCode != wantCode {
				t.Errorf("status: coordinator %d, single node %d", gotCode, wantCode)
			}
			if g, w := gotHdr.Get("Retry-After"), wantHdr.Get("Retry-After"); g != w {
				t.Errorf("Retry-After: coordinator %q, single node %q", g, w)
			}
			if tc.status == http.StatusTooManyRequests && wantHdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("bodies differ:\n  coordinator %v\n  single node %v", got, want)
			}
			if !tc.batch {
				return
			}

			entry := func(base string) map[string]any {
				code, _, m := postRaw(t, base, "/v1/batch", []byte(`{"jobs":[`+string(tc.body)+`]}`))
				results, _ := m["results"].([]any)
				if code != http.StatusOK || len(results) != 1 {
					t.Fatalf("batch via %s = %d %v", base, code, m)
				}
				return results[0].(map[string]any)
			}
			wantEntry, gotEntry := entry(node), entry(c.front.URL)
			if wantEntry["error_status"] != float64(tc.status) {
				t.Errorf("single-node entry error_status = %v, want %d", wantEntry["error_status"], tc.status)
			}
			for _, field := range []string{"error", "error_status", "error_extra", "workload"} {
				if !reflect.DeepEqual(gotEntry[field], wantEntry[field]) {
					t.Errorf("batch entry %s: coordinator %v, single node %v", field, gotEntry[field], wantEntry[field])
				}
			}
			if tc.extra != nil && !reflect.DeepEqual(wantEntry["error_extra"], stripError(want)) {
				t.Errorf("entry error_extra %v != the single response's extra fields %v",
					wantEntry["error_extra"], stripError(want))
			}
		})
	}
}

// stripError returns an error body's extra fields: everything but
// "error" itself.
func stripError(body map[string]any) map[string]any {
	out := make(map[string]any, len(body))
	for k, v := range body {
		if k != "error" {
			out[k] = v
		}
	}
	return out
}

// TestRunnerConformance runs one contract against the three
// implementations of server.Runner — the node, the peer client in front
// of an HTTP worker, and the coordinator (here with its only peer dead,
// so the whole ladder is walked down to the local rung): a valid job
// and a valid submission produce the same key and counters everywhere,
// and a deterministic failure is the same *server.Error everywhere.
func TestRunnerConformance(t *testing.T) {
	node := server.New(server.Options{Workers: 1})
	worker := server.New(server.Options{Workers: 1})
	workerTS := httptest.NewServer(worker.Handler())
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	local := server.New(server.Options{Workers: 1})
	co, err := New(Options{Peers: []string{dead.URL}, Local: local, TripAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		workerTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range []*server.Server{node, worker, local} {
			s.Drain(ctx)
		}
	})

	jobSpec := server.JobSpec{Microbench: 4, SI: true}
	wantKey, err := jobSpec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	var ref struct{ job, kernel server.JobResult }
	for i, impl := range []struct {
		name string
		run  server.Runner
	}{
		{"server", node},
		{"peer", &peer{name: peerName(workerTS.URL), url: workerTS.URL, client: http.DefaultClient}},
		{"coordinator", co},
	} {
		ctx := context.Background()
		jobRes, err := impl.run.Run(ctx, server.Request{Job: &jobSpec})
		if err != nil {
			t.Fatalf("%s: valid job: %v", impl.name, err)
		}
		if jobRes.Key != wantKey.String() || jobRes.Counters.Cycles == 0 || jobRes.Workload != jobSpec.WorkloadID() {
			t.Errorf("%s: valid job result %+v, want key %s with counters", impl.name, jobRes, wantKey)
		}
		kernelRes, err := impl.run.Run(ctx, server.Request{Kernel: &server.SubmitSpec{Name: "add", Assembly: addAsm}})
		if err != nil {
			t.Fatalf("%s: valid submission: %v", impl.name, err)
		}
		if kernelRes.Key == "" || kernelRes.Counters.Cycles == 0 {
			t.Errorf("%s: valid submission result %+v", impl.name, kernelRes)
		}
		if i == 0 {
			ref.job, ref.kernel = jobRes, kernelRes
		} else if jobRes.Key != ref.job.Key || jobRes.Counters != ref.job.Counters ||
			kernelRes.Key != ref.kernel.Key || kernelRes.Counters != ref.kernel.Counters {
			t.Errorf("%s: results differ from the node's own", impl.name)
		}

		_, err = impl.run.Run(ctx, server.Request{Kernel: &server.SubmitSpec{Assembly: spinAsm, MaxCycles: 3000}})
		var e *server.Error
		if !errors.As(err, &e) {
			t.Fatalf("%s: budget kill returned %T %v, want *server.Error", impl.name, err, err)
		}
		if e.Status != http.StatusUnprocessableEntity || e.Extra["budget_exhausted"] != "cycles" ||
			!strings.HasPrefix(e.Msg, "budget exhausted") {
			t.Errorf("%s: budget kill = %+v, want 422 budget_exhausted=cycles", impl.name, e)
		}
	}
	if co.fallbacks.Value() == 0 {
		t.Error("coordinator never reached its local rung; the dead-peer ladder was not exercised")
	}
}

// TestClusterNoPeersServesLocally: a coordinator configured with zero
// peers is just a single node — everything runs locally, nothing
// errors.
func TestClusterNoPeersServesLocally(t *testing.T) {
	c := newTestCluster(t, 0, nil, nil, nil)
	res, code, _ := postVia(t, c.front.URL, server.JobSpec{Microbench: 4, SI: true}, nil)
	if code != http.StatusOK {
		t.Fatalf("POST = %d", code)
	}
	if res.Counters.Cycles == 0 {
		t.Fatal("empty counters from local-only coordinator")
	}
	results, code := postBatch(t, c.front.URL, distinctSpecs(4))
	if code != http.StatusOK || len(results) != 4 {
		t.Fatalf("batch = %d with %d results", code, len(results))
	}
	for i, r := range results {
		if r.Failed() {
			t.Errorf("entry %d failed: %s", i, r.Error)
		}
	}
}
