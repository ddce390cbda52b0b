package simcache

import (
	"hash/fnv"
	"sync"
	"time"
)

// The backoff between retries of a failed disk operation. The first
// retry's ceiling is retryBase and doubles per attempt up to retryCap;
// sleeps draw uniformly from [0, ceiling) — "full jitter" — so
// synchronized clients spread out, from a deterministic sequence seeded
// by jitterSeed. One operation's sleeps never sum past retryBudget:
// when it is spent, the operation fails without further attempts.
const (
	retryBase   = 2 * time.Millisecond
	retryCap    = 50 * time.Millisecond
	retryBudget = 200 * time.Millisecond
	jitterSeed  = uint64(1)
)

// ResilientOptions tunes NewResilient. The zero value gives sane
// serving defaults.
type ResilientOptions struct {
	// Retries is the number of extra attempts after a failed backend
	// operation; 0 means 2 (three attempts total). Negative disables
	// retrying.
	Retries int
	// TripAfter is the consecutive-failure count that opens the
	// breaker. 0 means 5.
	TripAfter int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe. 0 means 5s.
	Cooldown time.Duration
	// MemoryEntries bounds the in-memory cache (NewMemory) that fronts
	// the disk and carries the cache through degraded mode. 0 means 4096.
	MemoryEntries int

	// Clock and Sleep substitute time.Now and time.Sleep in tests.
	Clock func() time.Time
	Sleep func(time.Duration)
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.TripAfter <= 0 {
		o.TripAfter = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.MemoryEntries <= 0 {
		o.MemoryEntries = 4096
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Resilient hardens a Disk backend for serving: an in-memory cache
// (NewMemory) fronts every operation, transient disk errors are retried with
// exponential backoff and full jitter under a per-operation budget,
// and a circuit breaker trips after consecutive failures so a dead
// disk degrades the cache to memory-only instead of taxing every
// request with doomed I/O and retry sleeps. After the cooldown a
// single half-open probe tests recovery; success closes the breaker
// again.
//
// The degradation is invisible to correctness: a cache may forget,
// never lie. Entries served from either layer carry the disk format's
// checksum guarantee, and a miss merely re-simulates (the determinism
// contract makes the result bit-identical).
type Resilient struct {
	disk *Disk
	mem  Cache
	o    ResilientOptions
	br   *Breaker // the degradation ladder (breaker.go)

	// OnStateChange, when set, is invoked (outside the layer's lock)
	// after every breaker transition, e.g. to feed an operational event
	// ring or a metric. Set before the cache is shared; must be safe
	// for concurrent use.
	OnStateChange func(from, to BreakerState)

	mu      sync.Mutex
	jitterN uint64 // deterministic jitter draw counter

	retries, diskErrors int64
	hits, misses        int64
}

// NewResilient wraps the disk backend. A nil disk yields a memory-only
// cache that reports itself permanently healthy.
func NewResilient(disk *Disk, opts ResilientOptions) *Resilient {
	opts = opts.withDefaults()
	r := &Resilient{
		disk: disk,
		mem:  NewMemory(opts.MemoryEntries),
		o:    opts,
	}
	r.br = &Breaker{
		TripAfter: opts.TripAfter,
		Cooldown:  opts.Cooldown,
		Clock:     opts.Clock,
		// Indirect so callers may set r.OnStateChange after construction
		// (the serving layer wires its hooks post-New).
		OnStateChange: func(from, to BreakerState) {
			if cb := r.OnStateChange; cb != nil {
				cb(from, to)
			}
		},
	}
	return r
}

// Disk exposes the wrapped disk backend (nil for memory-only), so the
// serving layer can attach its corrupt-eviction hook.
func (r *Resilient) Disk() *Disk { return r.disk }

// State returns the breaker's current state (after applying any due
// open -> half-open transition).
func (r *Resilient) State() BreakerState { return r.br.State() }

// Degraded reports that the disk backend is tripped (open or probing
// half-open): the cache is serving from memory only.
func (r *Resilient) Degraded() bool { return r.disk != nil && r.State() != BreakerClosed }

// allow reports whether a disk operation may proceed right now.
func (r *Resilient) allow() bool {
	if r.disk == nil {
		return false
	}
	return r.br.Allow()
}

// succeeded records a successful disk operation.
func (r *Resilient) succeeded() { r.br.Succeeded() }

// failed records a disk operation that exhausted its retries.
func (r *Resilient) failed() {
	r.mu.Lock()
	r.diskErrors++
	r.mu.Unlock()
	r.br.Failed()
}

// jitter returns the deterministic "random" fraction in [0,1) for the
// n-th backoff draw.
func (r *Resilient) jitter() float64 {
	r.mu.Lock()
	r.jitterN++
	n := r.jitterN
	r.mu.Unlock()
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(jitterSeed >> (8 * i))
		buf[8+i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / (1 << 53)
}

// withRetry runs op, retrying transient failures with exponential
// backoff and full jitter until the attempt count or the sleep budget
// runs out, then reports the breaker outcome.
func (r *Resilient) withRetry(op func() error) error {
	budget, ceiling := retryBudget, retryBase
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			r.succeeded()
			return nil
		}
		if attempt >= r.o.Retries || budget <= 0 {
			break
		}
		sleep := time.Duration(r.jitter() * float64(ceiling))
		if sleep > budget {
			sleep = budget
		}
		budget -= sleep
		r.o.Sleep(sleep)
		if ceiling *= 2; ceiling > retryCap {
			ceiling = retryCap
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
	}
	r.failed()
	return err
}

// Get serves from the memory layer first, then — breaker permitting —
// from disk, promoting disk hits into memory.
func (r *Resilient) Get(k Key) (Entry, bool) {
	if e, ok := r.mem.Get(k); ok {
		r.mu.Lock()
		r.hits++
		r.mu.Unlock()
		return e, true
	}
	var (
		e  Entry
		ok bool
	)
	if r.allow() {
		err := r.withRetry(func() error {
			var gerr error
			e, ok, gerr = r.disk.TryGet(k)
			return gerr
		})
		if err == nil && ok {
			r.mem.Put(k, e)
			r.mu.Lock()
			r.hits++
			r.mu.Unlock()
			return e, true
		}
	}
	r.mu.Lock()
	r.misses++
	r.mu.Unlock()
	return Entry{}, false
}

// Put stores into the memory layer always, and into disk when the
// breaker permits.
func (r *Resilient) Put(k Key, e Entry) {
	r.mem.Put(k, e)
	if r.allow() {
		r.withRetry(func() error { return r.disk.TryPut(k, e) })
	}
}

// Len reports resident entries: disk when healthy (the superset),
// memory when degraded or memory-only.
func (r *Resilient) Len() int {
	if r.disk != nil && !r.Degraded() {
		return r.disk.Len()
	}
	return r.mem.Len()
}

// Stats merges this layer's traffic counts with the backend's
// corrupt-eviction count and the resilience counters. Hits/Misses are
// counted once per Get at this layer (not double-counted across the
// memory and disk tiers).
func (r *Resilient) Stats() Stats {
	var s Stats
	if r.disk != nil {
		s.Corrupt = r.disk.Stats().Corrupt
	}
	s.Evictions = r.mem.Stats().Evictions
	degraded := r.Degraded() // takes the breaker lock; compute before locking
	s.BreakerTrips, s.BreakerRecoveries = r.br.Counts()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Hits = r.hits
	s.Misses = r.misses
	s.Retries = r.retries
	s.DiskErrors = r.diskErrors
	s.Degraded = degraded
	return s
}
