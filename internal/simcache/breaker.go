package simcache

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's state.
type BreakerState int32

const (
	// BreakerClosed: the protected backend is healthy; every operation
	// goes through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures exceeded the threshold;
	// operations are skipped entirely until the cooldown passes.
	BreakerOpen
	// BreakerHalfOpen: the cooldown passed; exactly one probe
	// operation is allowed through to test recovery.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is the repo's degradation ladder (PR 4) distilled into a
// reusable component: closed -> open after TripAfter consecutive
// failures, open -> half-open after Cooldown, and half-open -> closed
// on a successful probe (or back to open when the probe fails, with a
// fresh cooldown). Resilient uses one to shed a dead disk into
// memory-only serving; internal/cluster uses one per peer so a dead
// worker degrades to "route around the ring" the same way — the
// ladder's shape (trip, cool down, probe, recover) is identical, only
// the protected resource differs.
//
// The zero value is usable: TripAfter defaults to 5, Cooldown to 5s,
// and Clock to time.Now. All methods are safe for concurrent use.
type Breaker struct {
	// TripAfter is the consecutive-failure count that opens the
	// breaker; 0 means 5.
	TripAfter int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe; 0 means 5s.
	Cooldown time.Duration
	// Clock substitutes time.Now in tests.
	Clock func() time.Time
	// OnStateChange, when set, is invoked (outside the breaker's lock)
	// after every transition. Set before the breaker is shared; must be
	// safe for concurrent use.
	OnStateChange func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	trips, recoveries int64
}

func (b *Breaker) tripAfter() int {
	if b.TripAfter <= 0 {
		return 5
	}
	return b.TripAfter
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 5 * time.Second
	}
	return b.Cooldown
}

func (b *Breaker) now() time.Time {
	if b.Clock == nil {
		return time.Now()
	}
	return b.Clock()
}

// transition moves the breaker to a new state under the lock and
// returns the notifier to run after unlocking (nil when no observer).
func (b *Breaker) transition(to BreakerState) func() {
	from := b.state
	b.state = to
	if b.OnStateChange == nil || from == to {
		return nil
	}
	cb := b.OnStateChange
	return func() { cb(from, to) }
}

// State returns the breaker's current state (after applying any due
// open -> half-open transition).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	var notify func()
	if b.state == BreakerOpen && !b.now().Before(b.openedAt.Add(b.cooldown())) {
		notify = b.transition(BreakerHalfOpen)
		b.probing = false
	}
	s := b.state
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return s
}

// Allow reports whether an operation may proceed right now: always
// while closed, exactly one probe while half-open, never while open.
func (b *Breaker) Allow() bool {
	switch b.State() {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Succeeded records a successful operation, closing a half-open
// breaker.
func (b *Breaker) Succeeded() {
	b.mu.Lock()
	var notify func()
	b.fails = 0
	if b.state == BreakerHalfOpen {
		notify = b.transition(BreakerClosed)
		b.probing = false
		b.recoveries++
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Failed records an operation that failed terminally (after any
// retries the caller performs).
func (b *Breaker) Failed() {
	b.mu.Lock()
	var notify func()
	switch b.state {
	case BreakerHalfOpen:
		// The probe failed: back to open, restart the cooldown.
		notify = b.transition(BreakerOpen)
		b.openedAt = b.now()
		b.probing = false
		b.trips++
	case BreakerClosed:
		b.fails++
		if b.fails >= b.tripAfter() {
			notify = b.transition(BreakerOpen)
			b.openedAt = b.now()
			b.trips++
		}
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Abandoned records an operation that ended without a verdict because
// its caller gave up: nothing is counted against the backend, and a
// half-open probe's slot is freed for the next caller.
func (b *Breaker) Abandoned() {
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// Counts returns the lifetime trip and recovery totals.
func (b *Breaker) Counts() (trips, recoveries int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips, b.recoveries
}
