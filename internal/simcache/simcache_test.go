package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

func microKernelKey(t *testing.T, cfg config.Config, size int, workloadID string) Key {
	t.Helper()
	k, err := workload.Microbench(workload.DefaultMicrobench(size))
	if err != nil {
		t.Fatal(err)
	}
	return KeyOf(cfg, k, workloadID)
}

func TestKeyDeterministicAndTraceBlind(t *testing.T) {
	cfg := config.Default()
	k1 := microKernelKey(t, cfg, 4, "micro/4")
	k2 := microKernelKey(t, cfg, 4, "micro/4")
	if k1 != k2 {
		t.Fatal("identical inputs must produce identical keys")
	}
	// Attaching the observability recorder must not change the key:
	// tracing does not change results.
	traced := cfg
	traced.Trace = trace.NewRecorder()
	if k3 := microKernelKey(t, traced, 4, "micro/4"); k3 != k1 {
		t.Error("Config.Trace leaked into the cache key")
	}
	checked := cfg
	checked.Check = true
	if k4 := microKernelKey(t, checked, 4, "micro/4"); k4 != k1 {
		t.Error("Config.Check leaked into the cache key")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := microKernelKey(t, config.Default(), 4, "micro/4")
	for name, other := range map[string]Key{
		"SI policy":   microKernelKey(t, config.Default().WithSI(true, config.TriggerHalfStalled), 4, "micro/4"),
		"latency":     microKernelKey(t, func() config.Config { c := config.Default(); c.L1MissLatency = 300; return c }(), 4, "micro/4"),
		"program":     microKernelKey(t, config.Default(), 8, "micro/4"),
		"workload id": microKernelKey(t, config.Default(), 4, "micro/8"),
	} {
		if other == base {
			t.Errorf("changing %s must change the key", name)
		}
	}
}

// TestKeySchedPolicy pins the conditional keying rule: the default
// LRR policy must hash identically to a config that predates the
// SchedPolicy field (so the existing cache corpus stays valid), while
// GTO and WaSP — which change results — must key differently.
func TestKeySchedPolicy(t *testing.T) {
	base := microKernelKey(t, config.Default(), 4, "micro/4")

	lrr := config.Default()
	lrr.SchedPolicy = config.SchedLRR
	if k := microKernelKey(t, lrr, 4, "micro/4"); k != base {
		t.Error("explicit LRR must not change the key (cache-compatibility rule)")
	}

	seen := map[Key]string{base: "lrr"}
	for _, p := range []config.SchedPolicy{config.SchedGTO, config.SchedWaSP} {
		cfg := config.Default()
		cfg.SchedPolicy = p
		k := microKernelKey(t, cfg, 4, "micro/4")
		if prev, dup := seen[k]; dup {
			t.Errorf("policy %v collides with %s", p, prev)
		}
		seen[k] = p.String()
	}
}

func TestKeyParseRoundTrip(t *testing.T) {
	k := microKernelKey(t, config.Default(), 2, "micro/2")
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Error("ParseKey(String()) must round-trip")
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("bad hex must be rejected")
	}
}

func testEntry(cycles int64) Entry {
	return Entry{
		Policy: "baseline",
		Blocks: 8,
		Counters: stats.Counters{
			Cycles:       cycles,
			IssuedInstrs: 7 * cycles,
			IdleCycles:   cycles / 3,
		},
	}
}

func keyN(n byte) Key {
	var k Key
	k[0] = n
	return k
}

func TestMemoryHitMissEviction(t *testing.T) {
	c := NewMemory(2)
	if _, ok := c.Get(keyN(1)); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(keyN(1), testEntry(100))
	c.Put(keyN(2), testEntry(200))
	if got, ok := c.Get(keyN(1)); !ok || got.Counters.Cycles != 100 {
		t.Fatalf("Get(1) = %+v, %v", got, ok)
	}
	// Key 1 is now most recently used; inserting key 3 must evict key 2.
	c.Put(keyN(3), testEntry(300))
	if _, ok := c.Get(keyN(2)); ok {
		t.Error("LRU entry must be evicted")
	}
	if _, ok := c.Get(keyN(1)); !ok {
		t.Error("recently used entry must survive eviction")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 hits, 2 misses", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestMemoryPutOverwrites(t *testing.T) {
	c := NewMemory(4)
	c.Put(keyN(1), testEntry(100))
	c.Put(keyN(1), testEntry(999))
	if got, _ := c.Get(keyN(1)); got.Counters.Cycles != 999 {
		t.Errorf("overwrite not applied: %+v", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestDiskRoundTrip(t *testing.T) {
	c := NewDisk(t.TempDir())
	want := testEntry(4242)
	c.Put(keyN(7), want)
	got, ok := c.Get(keyN(7))
	if !ok {
		t.Fatal("stored entry must be readable")
	}
	if got != want {
		t.Errorf("round trip changed the entry:\n  got  %+v\n  want %+v", got, want)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestDiskCorruptedEntryRejected(t *testing.T) {
	dir := t.TempDir()
	c := NewDisk(dir)
	c.Logf = t.Logf
	c.Put(keyN(9), testEntry(123))
	path := filepath.Join(dir, keyN(9).String()+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte; the checksum no longer matches.
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyN(9)); ok {
		t.Fatal("corrupted entry must not be served")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", s.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupted entry file must be removed")
	}
	// After the rejection a clean Put serves again.
	c.Put(keyN(9), testEntry(123))
	if _, ok := c.Get(keyN(9)); !ok {
		t.Error("rewritten entry must be served")
	}
}

func TestDiskTruncatedAndForeignFilesRejected(t *testing.T) {
	dir := t.TempDir()
	c := NewDisk(dir)
	c.Logf = t.Logf
	for name, content := range map[string]string{
		keyN(1).String() + ".json": "",                        // empty
		keyN(2).String() + ".json": diskMagic,                 // header only, no newline
		keyN(3).String() + ".json": "otherformat abc\n{}",     // wrong magic
		keyN(4).String() + ".json": diskMagic + " deadbeef\n", // bad checksum
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []Key{keyN(1), keyN(2), keyN(3), keyN(4)} {
		if _, ok := c.Get(k); ok {
			t.Errorf("malformed entry %s must be rejected", k)
		}
	}
	if s := c.Stats(); s.Corrupt != 4 {
		t.Errorf("corrupt count = %d, want 4", s.Corrupt)
	}
}

func TestDiskPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1 := NewDisk(dir)
	c1.Put(keyN(5), testEntry(777))
	c2 := NewDisk(dir)
	if got, ok := c2.Get(keyN(5)); !ok || got.Counters.Cycles != 777 {
		t.Errorf("entry must survive across cache instances: %+v, %v", got, ok)
	}
}

// TestDiskDecodesEntriesWithRemovedCounters: an entry written before
// Counters lost the six fields that restated others (ExposedLoadStalls,
// IssueCycles, ExposedFetchStalls, BarrierStallCycles, L1IAccesses,
// LinesFetched) still decodes, and every counter it keeps reads as
// written.
func TestDiskDecodesEntriesWithRemovedCounters(t *testing.T) {
	payload := `{"policy":"SI Both,N>=0.5","blocks":4,"counters":{` +
		`"Cycles":5000,"IssuedInstrs":3000,"IssueCycles":3000,"IdleCycles":2000,"ActiveThreads":64000,` +
		`"ExposedLoadStalls":1200,"ExposedLoadStallsDivergent":700,"FetchStallCycles":450,` +
		`"ExposedFetchStalls":300,"BarrierStallCycles":500,` +
		`"IdleLoadCycles":1200,"IdleFetchCycles":300,"IdleSwitchCycles":250,"IdleBarrierCycles":150,"IdleNoWarpCycles":100,` +
		`"DivergentBranches":40,"Reconvergences":38,"MaxLiveSubwarps":4,` +
		`"SubwarpStalls":90,"SubwarpWakeups":88,"SubwarpSelects":85,"SubwarpYields":7,"SelectBusy":510,"TSTOverflow":2,` +
		`"L1DAccesses":640,"L1DMisses":600,"L0IAccesses":310,"L0IMisses":12,"L1IAccesses":12,"L1IMisses":9,"LinesFetched":640,` +
		`"RTTraces":64,"RTTraversalSteps":1900}}`
	sum := sha256.Sum256([]byte(payload))
	dir := t.TempDir()
	raw := diskMagic + " " + hex.EncodeToString(sum[:]) + "\n" + payload
	if err := os.WriteFile(filepath.Join(dir, keyN(6).String()+".json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := NewDisk(dir).Get(keyN(6))
	if !ok {
		t.Fatal("an entry in the previous format must still decode")
	}
	want := Entry{Policy: "SI Both,N>=0.5", Blocks: 4, Counters: stats.Counters{
		Cycles: 5000, IssuedInstrs: 3000, IdleCycles: 2000, ActiveThreads: 64000,
		ExposedLoadStallsDivergent: 700, FetchStallCycles: 450,
		IdleLoadCycles: 1200, IdleFetchCycles: 300, IdleSwitchCycles: 250, IdleBarrierCycles: 150, IdleNoWarpCycles: 100,
		DivergentBranches: 40, Reconvergences: 38, MaxLiveSubwarps: 4,
		SubwarpStalls: 90, SubwarpWakeups: 88, SubwarpSelects: 85, SubwarpYields: 7, SelectBusy: 510, TSTOverflow: 2,
		L1DAccesses: 640, L1DMisses: 600, L0IAccesses: 310, L0IMisses: 12, L1IMisses: 9,
		RTTraces: 64, RTTraversalSteps: 1900,
	}}
	if got != want {
		t.Errorf("decoded entry\n  got  %+v\n  want %+v", got, want)
	}
}

// TestKeyBudget pins the budget-keying rule that closes the ISSUE 9
// collision: a budget-killed partial result must never be served for a
// request with a different (e.g. larger) budget, so enabled budgets
// are part of the content address — while nil or all-zero budgets hash
// exactly like the pre-budget encoding, keeping the existing cache
// corpus valid.
func TestKeyBudget(t *testing.T) {
	cfg := config.Default()
	mk := func(b *sm.Budget) Key {
		k, err := workload.Microbench(workload.DefaultMicrobench(4))
		if err != nil {
			t.Fatal(err)
		}
		k.Budget = b
		return KeyOf(cfg, k, "micro/4")
	}
	base := mk(nil)
	if k := mk(&sm.Budget{}); k != base {
		t.Error("an all-zero (unlimited) budget must not change the key")
	}
	small := mk(&sm.Budget{MaxCycles: 1000})
	large := mk(&sm.Budget{MaxCycles: 1_000_000})
	if small == base || large == base {
		t.Error("an enabled budget must change the key")
	}
	if small == large {
		t.Error("different budgets must not collide: a budget-killed partial result would be served for the larger budget")
	}
	if a, b := mk(&sm.Budget{MaxInstrs: 500}), mk(&sm.Budget{MaxMemBytes: 500}); a == b {
		t.Error("budgets differing only in resource must not collide")
	}
}
