package simcache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"subwarpsim/internal/faults"
)

// fakeTime is a manual clock + sleep recorder for breaker/backoff
// tests: no real waiting, fully deterministic.
type fakeTime struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

func newFakeTime() *fakeTime {
	return &fakeTime{now: time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeTime) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeTime) Sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slept += d
}

func (f *fakeTime) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

// newResilientForTest builds a Disk (with injected faults) fronted by
// a Resilient with a fake clock.
func newResilientForTest(t *testing.T, spec string, opts ResilientOptions) (*Resilient, *Disk, *fakeTime) {
	t.Helper()
	in, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisk(t.TempDir())
	d.Faults = in
	d.Logf = t.Logf
	ft := newFakeTime()
	opts.Clock = ft.Now
	opts.Sleep = ft.Sleep
	return NewResilient(d, opts), d, ft
}

// TestRetryRecoversTransientReadErrors: the first two read attempts
// fail injected; the third succeeds, so a Get with two retries serves
// the entry and counts the retries.
func TestRetryRecoversTransientReadErrors(t *testing.T) {
	r, d, ft := newResilientForTest(t, "simcache.disk.read=error(n=2)", ResilientOptions{Retries: 2})
	if err := d.TryPut(keyN(1), testEntry(100)); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get(keyN(1))
	if !ok || got.Counters.Cycles != 100 {
		t.Fatalf("Get after transient errors = %+v, %v; want the entry", got, ok)
	}
	s := r.Stats()
	if s.Retries != 2 || s.DiskErrors != 0 {
		t.Errorf("stats = %+v, want 2 retries and 0 disk errors", s)
	}
	if r.State() != BreakerClosed || s.Degraded {
		t.Error("recovered operation must leave the breaker closed")
	}
	if ft.slept == 0 {
		t.Error("retries must back off (recorded sleep is zero)")
	}
}

// TestRetryBudgetCapsSleep: backoff sleeps never exceed the budget
// even with many retries allowed.
func TestRetryBudgetCapsSleep(t *testing.T) {
	r, _, ft := newResilientForTest(t, "simcache.disk.read=error", ResilientOptions{
		Retries: 50, TripAfter: 1000,
	})
	r.Get(keyN(1))
	if ft.slept > retryBudget {
		t.Errorf("slept %v, beyond the %v budget", ft.slept, retryBudget)
	}
	if s := r.Stats(); s.DiskErrors != 1 {
		t.Errorf("stats = %+v, want 1 disk error for the exhausted operation", s)
	}
}

// TestBreakerTripsToMemoryOnly: with the disk hard-down the breaker
// opens after TripAfter consecutive failed operations; afterwards the
// cache serves from memory without touching the disk at all.
func TestBreakerTripsToMemoryOnly(t *testing.T) {
	r, d, _ := newResilientForTest(t,
		"simcache.disk.read=error;simcache.disk.write=error",
		ResilientOptions{Retries: -1, TripAfter: 3, Cooldown: time.Hour})

	// Each Put hits the dead disk once; the third trips the breaker.
	for i := byte(1); i <= 3; i++ {
		r.Put(keyN(i), testEntry(int64(i)))
	}
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, got)
	}
	if !r.Degraded() {
		t.Fatal("open breaker must report degraded")
	}

	// Degraded mode: memory still serves, and the disk is not touched.
	before := d.Faults.Hits()
	for i := byte(1); i <= 3; i++ {
		if e, ok := r.Get(keyN(i)); !ok || e.Counters.Cycles != int64(i) {
			t.Errorf("degraded Get(%d) = %+v, %v; want memory hit", i, e, ok)
		}
	}
	r.Put(keyN(9), testEntry(9))
	if e, ok := r.Get(keyN(9)); !ok || e.Counters.Cycles != 9 {
		t.Errorf("degraded Put/Get = %+v, %v", e, ok)
	}
	if after := d.Faults.Hits(); !reflect.DeepEqual(before, after) {
		t.Errorf("degraded mode still touched the disk: hits %v -> %v", before, after)
	}

	s := r.Stats()
	if s.BreakerTrips != 1 || s.DiskErrors != 3 || !s.Degraded {
		t.Errorf("stats = %+v, want 1 trip, 3 disk errors, degraded", s)
	}
}

// TestBreakerHalfOpenProbeRecovers: after the cooldown one probe goes
// through; with the fault schedule exhausted it succeeds and closes
// the breaker again.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	r, _, ft := newResilientForTest(t, "simcache.disk.write=error(n=2)",
		ResilientOptions{Retries: -1, TripAfter: 2, Cooldown: time.Minute})

	r.Put(keyN(1), testEntry(1))
	r.Put(keyN(2), testEntry(2))
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open after 2 failures", got)
	}

	// Still open before the cooldown: disk ops are skipped.
	r.Put(keyN(3), testEntry(3))
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open before cooldown", got)
	}

	ft.Advance(2 * time.Minute)
	if got := r.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", got)
	}
	// The n=2 error rule is spent, so the probe write succeeds.
	r.Put(keyN(4), testEntry(4))
	if got := r.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", got)
	}
	s := r.Stats()
	if s.BreakerRecoveries != 1 || s.Degraded {
		t.Errorf("stats = %+v, want 1 recovery, not degraded", s)
	}

	// The disk really has the probe's entry.
	if e, ok, err := r.disk.TryGet(keyN(4)); err != nil || !ok || e.Counters.Cycles != 4 {
		t.Errorf("probe write not on disk: %+v %v %v", e, ok, err)
	}
}

// TestBreakerHalfOpenProbeFailureReopens: a failing probe returns the
// breaker to open and restarts the cooldown.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	r, _, ft := newResilientForTest(t, "simcache.disk.write=error",
		ResilientOptions{Retries: -1, TripAfter: 1, Cooldown: time.Minute})
	r.Put(keyN(1), testEntry(1))
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	ft.Advance(time.Minute)
	r.Put(keyN(2), testEntry(2)) // probe fails (error rule is unlimited)
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if s := r.Stats(); s.BreakerTrips != 2 {
		t.Errorf("trips = %d, want 2 (initial + failed probe)", s.BreakerTrips)
	}
}

// TestPartialWriteDetectedAsCorrupt: an injected torn write lands on
// disk, and the next read rejects it via the checksum, counts a
// corrupt eviction, and does NOT count a backend failure (the disk
// itself is healthy).
func TestPartialWriteDetectedAsCorrupt(t *testing.T) {
	r, d, _ := newResilientForTest(t, "simcache.disk.write=partial(n=1)", ResilientOptions{})
	r.Put(keyN(1), testEntry(111))
	// Drop the memory layer's copy so the Get must go to disk.
	r.mem = NewMemory(4)
	if _, ok := r.Get(keyN(1)); ok {
		t.Fatal("torn write must not be served")
	}
	if s := d.Stats(); s.Corrupt != 1 {
		t.Errorf("disk corrupt evictions = %d, want 1", s.Corrupt)
	}
	s := r.Stats()
	if s.Corrupt != 1 || s.DiskErrors != 0 || s.BreakerTrips != 0 {
		t.Errorf("stats = %+v: corruption must not trip the breaker", s)
	}
	// The evicted file is gone; a clean rewrite serves again.
	r.Put(keyN(1), testEntry(111))
	r.mem = NewMemory(4)
	if e, ok := r.Get(keyN(1)); !ok || e.Counters.Cycles != 111 {
		t.Errorf("rewritten entry = %+v, %v", e, ok)
	}
}

// TestCorruptReadDetected: bit corruption injected on the read path
// trips the checksum the same way.
func TestCorruptReadDetected(t *testing.T) {
	r, d, _ := newResilientForTest(t, "simcache.disk.read=corrupt(n=1)", ResilientOptions{})
	if err := d.TryPut(keyN(2), testEntry(7)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(keyN(2)); ok {
		t.Fatal("corrupted read must not be served")
	}
	if s := r.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 corrupt eviction", s)
	}
}

// TestCorruptEvictionLogsOnce: the offending key is logged exactly
// once even when corruption recurs.
func TestCorruptEvictionLogsOnce(t *testing.T) {
	dir := t.TempDir()
	d := NewDisk(dir)
	var logs []string
	d.Logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	path := filepath.Join(dir, keyN(3).String()+".json")
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(keyN(3)); ok {
			t.Fatal("garbage must not be served")
		}
	}
	if len(logs) != 1 {
		t.Fatalf("corrupt key logged %d times, want once: %v", len(logs), logs)
	}
	if !strings.Contains(logs[0], keyN(3).String()) {
		t.Errorf("log %q must name the key", logs[0])
	}
	if s := d.Stats(); s.Corrupt != 2 {
		t.Errorf("corrupt evictions = %d, want 2 (counter keeps counting)", s.Corrupt)
	}
	// A different key gets its own line.
	if err := os.WriteFile(filepath.Join(dir, keyN(4).String()+".json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.Get(keyN(4))
	if len(logs) != 2 {
		t.Errorf("second corrupt key logged %d times total, want 2", len(logs))
	}
}

// TestDiskIOErrorsAreNotMisses: a backend that fails (here: the cache
// "directory" is a regular file) surfaces errors from TryGet/TryPut
// rather than masquerading as misses, while plain Get/Put stay
// interface-compatible and swallow them.
func TestDiskIOErrorsAreNotMisses(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := NewDisk(filepath.Join(file, "cache"))
	if err := d.TryPut(keyN(1), testEntry(1)); err == nil {
		t.Error("TryPut into a file-backed path must error")
	}
	if _, ok := d.Get(keyN(1)); ok {
		t.Error("Get must degrade the error to a miss")
	}
}

// TestResilientMemoryOnly: a nil disk is a pure memory cache that is
// never degraded.
func TestResilientMemoryOnly(t *testing.T) {
	r := NewResilient(nil, ResilientOptions{MemoryEntries: 2})
	r.Put(keyN(1), testEntry(1))
	if e, ok := r.Get(keyN(1)); !ok || e.Counters.Cycles != 1 {
		t.Errorf("memory-only Get = %+v, %v", e, ok)
	}
	if r.Degraded() {
		t.Error("memory-only cache must not report degraded")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

// TestFaultsReplayDeterministic is the replay guarantee at the cache
// layer: the same seed over the same operation sequence produces the
// identical outcome vector and the identical fault schedule,
// byte for byte.
func TestFaultsReplayDeterministic(t *testing.T) {
	spec := "seed=11;simcache.disk.read=error(p=0.4);simcache.disk.write=error(p=0.3)"
	run := func() (outcomes []string, events []faults.Event) {
		in, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDisk(t.TempDir())
		d.Faults = in
		d.Logf = t.Logf
		r := NewResilient(d, ResilientOptions{
			Retries: 1, TripAfter: 4, Cooldown: time.Hour,
			Clock: newFakeTime().Now, Sleep: func(time.Duration) {},
		})
		for i := 0; i < 30; i++ {
			k := keyN(byte(i % 7))
			if i%3 == 0 {
				r.Put(k, testEntry(int64(i)))
				outcomes = append(outcomes, fmt.Sprintf("put%d:%v", i, r.State()))
			} else {
				e, ok := r.Get(k)
				outcomes = append(outcomes, fmt.Sprintf("get%d:%v:%d:%v", i, ok, e.Counters.Cycles, r.State()))
			}
		}
		st := r.Stats()
		outcomes = append(outcomes, fmt.Sprintf("stats:%+v", st))
		return outcomes, in.Events()
	}
	o1, e1 := run()
	o2, e2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("outcome vectors differ between identically-seeded runs:\n  a: %v\n  b: %v", o1, o2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("fault schedules differ between identically-seeded runs:\n  a: %+v\n  b: %+v", e1, e2)
	}
	if len(e1) == 0 {
		t.Error("chaos schedule fired no faults; the test is vacuous")
	}
}
