package simcache

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerLadder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var transitions []string
	b := &Breaker{
		TripAfter: 3,
		Cooldown:  10 * time.Second,
		Clock:     clk.now,
		OnStateChange: func(from, to BreakerState) {
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	}

	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}

	// Two failures: still closed (TripAfter is 3).
	b.Failed()
	b.Failed()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after 2 failures state = %v, want closed", got)
	}
	// A success resets the consecutive count.
	b.Succeeded()
	b.Failed()
	b.Failed()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("success must reset consecutive failures; state = %v", got)
	}

	// Third consecutive failure trips it.
	b.Failed()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after trip state = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker must not allow")
	}

	// Cooldown elapses: half-open, exactly one probe.
	clk.advance(11 * time.Second)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("after cooldown state = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker must allow one probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker must allow only one probe")
	}
	// A probe abandoned by its caller is no verdict: still half-open,
	// and the slot goes to the next caller.
	b.Abandoned()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("after an abandoned probe state = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("an abandoned probe must free the probe slot")
	}

	// Probe fails: back to open with a fresh cooldown.
	b.Failed()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after failed probe state = %v, want open", got)
	}
	clk.advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown after failed probe must re-open a probe slot")
	}

	// Probe succeeds: closed again, recovery counted.
	b.Succeeded()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after recovery state = %v, want closed", got)
	}
	trips, recoveries := b.Counts()
	if trips != 2 || recoveries != 1 {
		t.Fatalf("Counts() = (%d, %d), want (2, 1)", trips, recoveries)
	}

	want := []string{
		"closed->open",
		"open->half-open",
		"half-open->open",
		"open->half-open",
		"half-open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q (all: %v)", i, transitions[i], want[i], transitions)
		}
	}
}

func TestBreakerZeroValueDefaults(t *testing.T) {
	var b Breaker
	if !b.Allow() {
		t.Fatal("zero-value breaker must start closed and allow")
	}
	// Default TripAfter is 5.
	for i := 0; i < 4; i++ {
		b.Failed()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after 4 failures state = %v, want closed (default TripAfter 5)", got)
	}
	b.Failed()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after 5 failures state = %v, want open", got)
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestKeyRouteHash(t *testing.T) {
	var k Key
	copy(k[:], []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0xff})
	if got, want := k.RouteHash(), uint64(0x0102030405060708); got != want {
		t.Fatalf("RouteHash() = %#x, want %#x", got, want)
	}
	// Stable across calls and independent of bytes past the window.
	k[31] = 0xaa
	if got := k.RouteHash(); got != uint64(0x0102030405060708) {
		t.Fatalf("RouteHash() must depend only on the first 8 bytes; got %#x", got)
	}
}
