package server

import (
	"errors"
	"sync"
)

// Queue-full conditions, distinguished so the API can tell a tenant
// "the service is saturated" apart from "you are over your quota".
var (
	errQueueFull  = errors.New("server: job queue is full")
	errTenantFull = errors.New("server: tenant queue quota exceeded")
)

// maxTenants bounds how many distinct tenants the queue (and the
// per-tenant metric series derived from it) will track; arrivals
// beyond the cap collapse into the overflow tenant. See tenantSet.
const maxTenants = 64

// fairQueue replaces the plain FIFO channel between Submit and the
// worker pool with weighted-fair dequeue across tenants. Each tenant
// owns a FIFO sub-queue; workers drain tenants round-robin, giving
// tenant t up to weight(t) consecutive dequeues per visit (deficit-
// style), so one tenant flooding the queue cannot starve the others —
// a full-queue 429 still prices the flood, but whatever the flooder
// does get in line shares the workers fairly with everyone else.
//
// Two quotas are enforced here rather than in Submit so they hold no
// matter which entry point enqueued the work: maxQueued bounds one
// tenant's waiting jobs (push fails with errTenantFull), and
// maxInFlight bounds one tenant's jobs concurrently on workers (pop
// skips the tenant until release is called).
//
// Determinism note: fairness affects only queueing order, never
// simulation results — every job's outcome is a pure function of its
// content key (the serving model's standing contract).
type fairQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cap     int // total queued bound (the old channel capacity)
	total   int // jobs currently queued across all tenants
	waiting int // workers parked in pop, ready for direct pickup
	closed  bool

	tenants map[string]*tenantQ
	order   []string // round-robin visit order (tenant arrival order)
	rr      int      // index into order of the tenant being served
	served  int      // consecutive dequeues granted to order[rr]

	maxQueued   int                 // per-tenant queued bound; 0 = unlimited
	maxInFlight int                 // per-tenant concurrent bound; 0 = unlimited
	weightOf    func(string) int    // round-robin share per visit; <1 treated as 1
	onNewTenant func(tenant string) // called (unlocked) when a tenant is first seen
}

// tenantQ is one tenant's FIFO plus its in-flight count. head indexes
// the logical front so popping is O(1) without re-slicing the backing
// array into a leak; the slice is compacted when fully drained.
type tenantQ struct {
	q        []task
	head     int
	inflight int
}

func (tq *tenantQ) depth() int { return len(tq.q) - tq.head }

func newFairQueue(capacity, maxQueued, maxInFlight int, weights map[string]int) *fairQueue {
	fq := &fairQueue{
		cap:         capacity,
		tenants:     make(map[string]*tenantQ),
		maxQueued:   maxQueued,
		maxInFlight: maxInFlight,
		weightOf: func(name string) int {
			if w := weights[name]; w > 0 {
				return w
			}
			return 1
		},
	}
	fq.cond = sync.NewCond(&fq.mu)
	return fq
}

// push enqueues t for the tenant, failing fast on backpressure. The
// onNewTenant hook fires outside the lock (it registers a gauge whose
// read callback takes the lock).
func (fq *fairQueue) push(tenant string, t task) error {
	fq.mu.Lock()
	if fq.closed {
		fq.mu.Unlock()
		return errQueueFull
	}
	// Capacity mirrors buffered-channel semantics: a send to a channel
	// with parked receivers hands off directly without consuming buffer,
	// so a parked worker extends the effective capacity by one. Without
	// this, a push racing a worker's wake-up between Signal and pop
	// would spuriously reject at exactly cap.
	if fq.total >= fq.cap+fq.waiting {
		fq.mu.Unlock()
		return errQueueFull
	}
	tq, seen := fq.tenants[tenant]
	if !seen {
		tq = &tenantQ{}
		fq.tenants[tenant] = tq
		fq.order = append(fq.order, tenant)
	}
	if fq.maxQueued > 0 && tq.depth() >= fq.maxQueued {
		fq.mu.Unlock()
		return errTenantFull
	}
	tq.q = append(tq.q, t)
	fq.total++
	fq.cond.Signal()
	hook := fq.onNewTenant
	fq.mu.Unlock()
	if !seen && hook != nil {
		hook(tenant)
	}
	return nil
}

// pop blocks until a task is available (respecting in-flight quotas)
// or the queue is closed and drained; ok=false means the worker
// should exit. The caller must call release(t.tenant) when the task
// finishes.
func (fq *fairQueue) pop() (t task, ok bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for {
		if t, ok = fq.tryPopLocked(); ok {
			return t, true
		}
		if fq.closed && fq.total == 0 {
			return task{}, false
		}
		// Either empty, or every queued tenant is at its in-flight
		// quota; release() and push() both wake us.
		fq.waiting++
		fq.cond.Wait()
		fq.waiting--
	}
}

// tryPopLocked scans tenants round-robin from the current position,
// skipping empty or in-flight-capped ones, and dequeues the head of
// the first eligible tenant. The serving tenant keeps the grant until
// it has consumed weight(t) dequeues or runs dry.
func (fq *fairQueue) tryPopLocked() (task, bool) {
	n := len(fq.order)
	for i := 0; i < n; i++ {
		idx := (fq.rr + i) % n
		name := fq.order[idx]
		tq := fq.tenants[name]
		if tq.depth() == 0 {
			continue
		}
		if fq.maxInFlight > 0 && tq.inflight >= fq.maxInFlight {
			continue
		}
		if idx != fq.rr {
			fq.rr, fq.served = idx, 0
		}
		t := tq.q[tq.head]
		tq.q[tq.head] = task{} // release references for GC
		tq.head++
		if tq.head == len(tq.q) {
			tq.q, tq.head = tq.q[:0], 0
		}
		fq.total--
		tq.inflight++
		fq.served++
		if fq.served >= fq.weightOf(name) {
			fq.rr, fq.served = (idx+1)%n, 0
		}
		return t, true
	}
	return task{}, false
}

// release retires one in-flight task for the tenant, potentially
// unblocking workers that skipped it for quota.
func (fq *fairQueue) release(tenant string) {
	fq.mu.Lock()
	if tq := fq.tenants[tenant]; tq != nil && tq.inflight > 0 {
		tq.inflight--
	}
	fq.mu.Unlock()
	fq.cond.Broadcast()
}

// close stops pushes and lets workers drain what remains, mirroring
// close(chan)'s "drain then exit the range loop" semantics.
func (fq *fairQueue) close() {
	fq.mu.Lock()
	fq.closed = true
	fq.mu.Unlock()
	fq.cond.Broadcast()
}

// Len returns the total queued depth (the old len(chan)).
func (fq *fairQueue) Len() int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return fq.total
}

// Cap returns the total queued bound (the old cap(chan)).
func (fq *fairQueue) Cap() int { return fq.cap }

// depthOf returns one tenant's queued depth, for the per-tenant
// queue-depth gauges.
func (fq *fairQueue) depthOf(tenant string) int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if tq := fq.tenants[tenant]; tq != nil {
		return tq.depth()
	}
	return 0
}
