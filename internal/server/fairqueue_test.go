package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestFairQueueOverflowTenantSharesQuota: tenants beyond the tracked
// cap collapse into OverflowTenant and share one queued quota — the
// cardinality bound cannot be dodged by inventing fresh tenant names,
// which is exactly what forwarded-tenant headers from a coordinator
// would let a hostile client do otherwise.
func TestFairQueueOverflowTenantSharesQuota(t *testing.T) {
	names := newTenantSet()
	fq := newFairQueue(1024, 2, 0, nil)

	// Fill the tracked set.
	for i := 0; i < maxTenants; i++ {
		names.canon("t" + strconv.Itoa(i))
	}
	// Every later tenant canonicalizes to the one overflow lane.
	for i := 0; i < 2; i++ {
		tenant := names.canon("fresh-" + strconv.Itoa(i))
		if tenant != OverflowTenant {
			t.Fatalf("over-cap tenant = %q, want %q", tenant, OverflowTenant)
		}
		if err := fq.push(tenant, task{tenant: tenant}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	// The third distinct "fresh" tenant still lands in the shared lane,
	// which is now at its queued quota.
	tenant := names.canon("fresh-2")
	if err := fq.push(tenant, task{tenant: tenant}); err != errTenantFull {
		t.Fatalf("push over shared overflow quota = %v, want errTenantFull", err)
	}
	// A tracked tenant is unaffected by the overflow lane's pressure.
	if err := fq.push(names.canon("t0"), task{tenant: "t0"}); err != nil {
		t.Fatalf("tracked tenant push: %v", err)
	}
}

// TestFairQueueDrainWithParkedWorkers: close() must wake workers
// parked in pop, let them drain what is queued, and then send every
// parked worker home with ok=false — no goroutine may stay parked
// forever and no queued task may be dropped.
func TestFairQueueDrainWithParkedWorkers(t *testing.T) {
	fq := newFairQueue(64, 0, 0, nil)

	const workers = 4
	var mu sync.Mutex
	var drained []string
	var wg sync.WaitGroup
	parked := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parked <- struct{}{}
			for {
				tk, ok := fq.pop()
				if !ok {
					return
				}
				mu.Lock()
				drained = append(drained, tk.tenant)
				mu.Unlock()
				fq.release(tk.tenant)
			}
		}()
	}
	for i := 0; i < workers; i++ {
		<-parked
	}
	// All workers are at (or arriving at) the parked wait. Queue a few
	// tasks, then close before anything else wakes them: the tasks must
	// still be drained.
	for _, tenant := range []string{"a", "b", "a"} {
		if err := fq.push(tenant, task{tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	fq.close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("workers still parked after close; drain hangs")
	}
	if len(drained) != 3 {
		t.Fatalf("drained %d tasks, want 3 (%v)", len(drained), drained)
	}
	if fq.Len() != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", fq.Len())
	}
	// pop after a drained close returns immediately with ok=false.
	if _, ok := fq.pop(); ok {
		t.Fatal("pop on closed drained queue returned a task")
	}
}

// TestBatchStructuredErrors is the regression test for batch error
// aggregation: failed entries stay at their own index with the status
// and structured fields their single-job form would carry, and
// sibling successes are neither dropped nor reordered.
func TestBatchStructuredErrors(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := batchRequest{Jobs: []JobSpec{
		{Microbench: 2},                      // valid
		{App: "NoSuchApp"},                   // 400: unknown workload
		{Microbench: 2, SI: true},            // valid
		{Microbench: 3, SI: true, DWS: true}, // 400: si+dws conflict
	}}
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
	if len(br.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(br.Results))
	}
	for _, i := range []int{0, 2} {
		if br.Results[i].Failed() || br.Results[i].Counters.Cycles == 0 {
			t.Errorf("entry %d: valid spec must succeed in place: %+v", i, br.Results[i])
		}
	}
	for _, i := range []int{1, 3} {
		r := br.Results[i]
		if !r.Failed() {
			t.Fatalf("entry %d: invalid spec must fail in place: %+v", i, r)
		}
		if r.ErrorStatus != http.StatusBadRequest {
			t.Errorf("entry %d: ErrorStatus = %d, want 400", i, r.ErrorStatus)
		}
	}
	if br.Results[1].Workload != "app/NoSuchApp" {
		t.Errorf("entry 1 workload = %q; error entries must keep their identity",
			br.Results[1].Workload)
	}
}

// TestBatchQuarantinedEntryCarriesExtra: a per-entry failure with
// structured body fields (here: quarantine) surfaces them in
// ErrorExtra so batch clients see the same machine-readable body as
// single-job clients.
func TestBatchQuarantinedEntryCarriesExtra(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Microbench: 2}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.quarantine[key] = "test-injected"
	s.mu.Unlock()

	body, _ := json.Marshal(batchRequest{Jobs: []JobSpec{spec}})
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	r := br.Results[0]
	if r.ErrorStatus != http.StatusUnprocessableEntity {
		t.Fatalf("ErrorStatus = %d, want 422: %+v", r.ErrorStatus, r)
	}
	if q, _ := r.ErrorExtra["quarantined"].(bool); !q {
		t.Errorf("ErrorExtra missing quarantined=true: %v", r.ErrorExtra)
	}
	if got, _ := r.ErrorExtra["key"].(string); got != key.String() {
		t.Errorf("ErrorExtra key = %q, want %q", got, key.String())
	}
}

// TestBackpressure429Body pins the structured 429 body shape both the
// single node and the cluster coordinator emit: shared depth/cap, the
// tenant's own queued depth, and the queue-wait p95.
func TestBackpressure429Body(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := s.backpressureExtra("team-x", s.retryAfterSec())
	for _, field := range []string{
		"tenant", "queue_depth", "queue_cap",
		"tenant_queue_depth", "queue_wait_p95_ms", "retry_after_sec",
	} {
		if _, ok := body[field]; !ok {
			t.Errorf("backpressure body missing %q: %v", field, body)
		}
	}
	if body["tenant"] != "team-x" {
		t.Errorf("tenant = %v, want team-x", body["tenant"])
	}
	if body["queue_cap"].(int) <= 0 {
		t.Errorf("queue_cap = %v, want the configured depth", body["queue_cap"])
	}
}
