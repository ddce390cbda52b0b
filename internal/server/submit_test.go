package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// submitAsm is a well-formed untrusted kernel: scoreboarded loads, a
// properly-armed divergent branch, stores. Mirrors the admission
// package's acceptance exemplar.
const submitAsm = `
.regs 16
    S2R R0, SR3
    SHL R1, R0, 2
    LDG R2, [R1+0] &wr=sb0
    ISETP.LT P0, R0, 16
    BSSY B0, join
    @P0 BRA double
    IADD R3, R2, 1 &req=sb0
    BRA join
double:
    IADD R3, R2, R2 &req=sb0
join:
    BSYNC B0
    STG [R1+4096], R3
    EXIT
`

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

// hostileCorpusDir reaches the admission package's shared corpus; the
// sandbox gate in tools/check.sh feeds the same files to a live
// daemon.
const hostileCorpusDir = "../admission/testdata/hostile"

// postSubmit POSTs a SubmitSpec with an optional X-Tenant header and
// returns the status plus the decoded JSON body.
func postSubmit(t *testing.T, ts *httptest.Server, tenant string, sp SubmitSpec) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
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

func TestSubmitWellFormed(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := SubmitSpec{Name: "demo", Assembly: submitAsm}
	code, body := postSubmit(t, ts, "", sp)
	if code != http.StatusOK {
		t.Fatalf("submit = %d: %v", code, body)
	}
	if w, _ := body["workload"].(string); w != SubmitWorkloadID {
		t.Errorf("workload = %q, want %q", w, SubmitWorkloadID)
	}
	counters, _ := body["counters"].(map[string]any)
	if cy, _ := counters["Cycles"].(float64); cy <= 0 {
		t.Errorf("no cycles simulated: %v", body)
	}
	if cached, _ := body["cached"].(bool); cached {
		t.Error("first submission cannot be a cache hit")
	}
	// Bit-identical replay from the cache.
	code2, body2 := postSubmit(t, ts, "", sp)
	if code2 != http.StatusOK {
		t.Fatalf("resubmit = %d", code2)
	}
	if cached, _ := body2["cached"].(bool); !cached {
		t.Error("identical resubmission should hit the cache")
	}
	if body["key"] != body2["key"] {
		t.Errorf("keys differ across identical submissions: %v vs %v", body["key"], body2["key"])
	}
}

// tinyBudget keeps hostile programs' kill times trivial in tests.
func tinyBudget(sp SubmitSpec) SubmitSpec {
	sp.MaxCycles = 20000
	sp.MaxInstrs = 40000
	sp.MemFootprintBytes = 1 << 16
	return sp
}

// TestSubmitHostileCorpus drives the shared hostile corpus through the
// live HTTP pipeline: every program is either rejected up front with a
// structured reason (400) or terminated deterministically by the gas
// meter / deadlock detector (422) — and the service stays healthy.
func TestSubmitHostileCorpus(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The three corpus programs admission must accept (their
	// termination is the gas meter's job); everything else rejects.
	admitted := map[string]bool{
		"infinite_loop.asm": true,
		"store_bomb.asm":    true,
		"twin_bsync.asm":    true,
	}
	files, err := filepath.Glob(filepath.Join(hostileCorpusDir, "*.asm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no hostile corpus at %s: %v", hostileCorpusDir, err)
	}
	var rejects, kills int
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		code, body := postSubmit(t, ts, "", tinyBudget(SubmitSpec{Name: name, Assembly: string(src)}))
		if admitted[name] {
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%s: status %d, want 422 (budget kill or deadlock): %v", name, code, body)
				continue
			}
			_, budget := body["budget_exhausted"]
			_, deadlock := body["deadlock"]
			if !budget && !deadlock {
				t.Errorf("%s: 422 without budget_exhausted or deadlock marker: %v", name, body)
			}
			kills++
		} else {
			if code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400 (admission reject): %v", name, code, body)
				continue
			}
			if r, _ := body["reason"].(string); r == "" {
				t.Errorf("%s: reject without structured reason: %v", name, body)
			}
			rejects++
		}
	}
	if rejects == 0 || kills == 0 {
		t.Fatalf("corpus exercised nothing: %d rejects, %d kills", rejects, kills)
	}

	// The daemon is healthy and serves well-formed work afterwards.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d after hostile corpus", resp.StatusCode)
	}
	if code, body := postSubmit(t, ts, "", SubmitSpec{Assembly: submitAsm}); code != http.StatusOK {
		t.Fatalf("well-formed submit after corpus = %d: %v", code, body)
	}

	// The sandbox counters moved: rejects by reason, kills by resource.
	text, _ := scrape(t, ts, "text/plain")
	if sumMetric(t, text, "sisimd_admission_rejects_total") < float64(rejects) {
		t.Errorf("admission_rejects_total did not count the rejects:\n%s",
			grepLines(text, "admission_rejects"))
	}
	if sumMetric(t, text, "sisimd_budget_kills_total") == 0 {
		t.Errorf("budget_kills_total never moved:\n%s", grepLines(text, "budget_kills"))
	}
}

// sumMetric adds up every series of one metric family in a text
// exposition.
func sumMetric(t *testing.T, text, name string) float64 {
	t.Helper()
	var sum float64
	for _, l := range strings.Split(text, "\n") {
		if !strings.HasPrefix(l, name) || strings.HasPrefix(l, "# ") {
			continue
		}
		fields := strings.Fields(l)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", l, err)
		}
		sum += v
	}
	return sum
}

// TestSubmitBudgetKillDeterministicAcrossEngines: the same submission
// dies at the same point on every fresh server — including when the
// body still carries the retired "compile" field, which is ignored (the
// regime-level kill identity is pinned by gpu.TestBudgetKillBitIdentical)
// — and the budget participates in content addressing: a tiny-budget
// kill and a big-budget success of the same program never alias.
func TestSubmitBudgetKillDeterministicAcrossEngines(t *testing.T) {
	kill := func(body map[string]any) map[string]any {
		s := newTestServer(t, Options{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		raw, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("body %s: status %d, want 422: %v", raw, resp.StatusCode, m)
		}
		return m
	}
	plain := kill(map[string]any{"assembly": spinAsm, "max_cycles": 3000})
	legacy := kill(map[string]any{"assembly": spinAsm, "max_cycles": 3000, "compile": "off"})
	for _, k := range []string{"budget_exhausted", "limit", "used", "cycle"} {
		if plain[k] != legacy[k] {
			t.Errorf("runs disagree on %s: plain=%v legacy-compile-off=%v", k, plain[k], legacy[k])
		}
	}
	if plain["budget_exhausted"] != "cycles" {
		t.Errorf("exhausted resource = %v, want cycles", plain["budget_exhausted"])
	}

	// Same program, generous budget: distinct key, successful run; the
	// killed variant stays killed (regression for the budget-in-key
	// collision).
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, small := postSubmit(t, ts, "", SubmitSpec{Assembly: submitAsm, MaxCycles: 10})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("starved budget = %d, want 422: %v", code, small)
	}
	code, big := postSubmit(t, ts, "", SubmitSpec{Assembly: submitAsm})
	if code != http.StatusOK {
		t.Fatalf("default budget = %d, want 200: %v", code, big)
	}
	code, again := postSubmit(t, ts, "", SubmitSpec{Assembly: submitAsm, MaxCycles: 10})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("starved budget after success = %d, want 422 (keys must not alias): %v", code, again)
	}
}

func TestTenantRateLimit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, TenantRate: 1, TenantBurst: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	now := time.Unix(1000, 0)
	s.limiter.now = func() time.Time { return now }

	sp := SubmitSpec{Assembly: submitAsm}
	for i := 0; i < 2; i++ {
		if code, body := postSubmit(t, ts, "alice", sp); code != http.StatusOK {
			t.Fatalf("burst submit %d = %d: %v", i, code, body)
		}
	}
	code, body := postSubmit(t, ts, "alice", sp)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit = %d, want 429: %v", code, body)
	}
	if rl, _ := body["rate_limited"].(bool); !rl {
		t.Errorf("429 body should mark rate_limited: %v", body)
	}
	// Another tenant is unaffected; the limit is per tenant.
	if code, body := postSubmit(t, ts, "bob", sp); code != http.StatusOK {
		t.Fatalf("other tenant = %d: %v", code, body)
	}
	// Tokens refill with time.
	now = now.Add(1 * time.Second)
	if code, _ := postSubmit(t, ts, "alice", sp); code != http.StatusOK {
		t.Fatalf("post-refill submit = %d, want 200", code)
	}
	if s.rateLimited.Value() == 0 {
		t.Error("rate-limited counter never moved")
	}
}

func TestTenantQueueQuota(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 8, TenantMaxQueued: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.runSim = fakeSim(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker, then fill alice's one queued slot.
	done1 := postJobAsync(t, ts, "alice", JobSpec{Microbench: 1})
	<-started
	done2 := postJobAsync(t, ts, "alice", JobSpec{Microbench: 2})
	waitFor(t, func() bool { return s.queue.Len() == 1 })

	// Alice is at quota: rejected with the tenant-specific message.
	code, _, body := postRawTenant(t, ts, "alice", JobSpec{Microbench: 4})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d, want 429: %v", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "tenant queue quota") {
		t.Errorf("429 error %q should name the tenant quota", msg)
	}
	// Bob still has room: the quota is per tenant, not global.
	done3 := postJobAsync(t, ts, "bob", JobSpec{Microbench: 8})
	waitFor(t, func() bool { return s.queue.Len() == 2 })

	close(release)
	for _, c := range []chan int{done1, done2, done3} {
		if code := <-c; code != http.StatusOK {
			t.Errorf("queued job = %d, want 200", code)
		}
	}
}

// postJobAsync POSTs a job in the background, delivering the final
// status on the returned channel.
func postJobAsync(t *testing.T, ts *httptest.Server, tenant string, spec JobSpec) chan int {
	t.Helper()
	done := make(chan int, 1)
	go func() {
		code, _, _ := postRawTenant(t, ts, tenant, spec)
		done <- code
	}()
	return done
}

func postRawTenant(t *testing.T, ts *httptest.Server, tenant string, spec JobSpec) (int, http.Header, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, resp.Header, m
}

// TestWeightedFairDequeue pins the scheduler itself: with equal
// weights tenants alternate; with weight 2 one tenant gets two
// dequeues per round.
func TestWeightedFairDequeue(t *testing.T) {
	popOrder := func(weights map[string]int, pushes []string) []string {
		fq := newFairQueue(64, 0, 0, weights)
		for _, tenant := range pushes {
			if err := fq.push(tenant, task{tenant: tenant}); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for range pushes {
			tk, ok := fq.pop()
			if !ok {
				t.Fatal("queue drained early")
			}
			got = append(got, tk.tenant)
			fq.release(tk.tenant)
		}
		return got
	}

	// A floods before B arrives; equal weights still alternate.
	got := popOrder(nil, []string{"a", "a", "a", "a", "b", "b"})
	want := []string{"a", "b", "a", "b", "a", "a"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("equal weights: pop order %v, want %v", got, want)
	}

	// Weight 2 gives A two slots per round.
	got = popOrder(map[string]int{"a": 2}, []string{"a", "a", "a", "a", "b", "b"})
	want = []string{"a", "a", "b", "a", "a", "b"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("weighted: pop order %v, want %v", got, want)
	}
}

// TestFairQueueInFlightQuota: a tenant at its in-flight cap is
// skipped, other tenants proceed, and release unblocks it.
func TestFairQueueInFlightQuota(t *testing.T) {
	fq := newFairQueue(64, 0, 1, nil)
	for _, tenant := range []string{"a", "a", "b"} {
		if err := fq.push(tenant, task{tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	t1, _ := fq.pop() // a (inflight 1 = cap)
	t2, _ := fq.pop() // must skip a's second task
	if t1.tenant != "a" || t2.tenant != "b" {
		t.Fatalf("pops = %s,%s; want a,b (a capped in flight)", t1.tenant, t2.tenant)
	}
	fq.release("a")
	t3, _ := fq.pop()
	if t3.tenant != "a" {
		t.Fatalf("after release pop = %s, want a", t3.tenant)
	}
}

func TestSanitizeTenantAndOverflow(t *testing.T) {
	for in, want := range map[string]string{
		"team-7":                "team-7",
		"":                      DefaultTenant,
		"has space":             DefaultTenant,
		strings.Repeat("x", 65): DefaultTenant,
	} {
		if got := sanitizeTenant(in); got != want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", in, got, want)
		}
	}
	ts := newTenantSet()
	for i := 0; i < maxTenants+8; i++ {
		ts.canon("tenant-" + strconv.Itoa(i))
	}
	if got := ts.canon("tenant-0"); got != "tenant-0" {
		t.Errorf("known tenant collapsed: %q", got)
	}
	if got := ts.canon("fresh-after-cap"); got != OverflowTenant {
		t.Errorf("over-cap tenant = %q, want %q", got, OverflowTenant)
	}
}
