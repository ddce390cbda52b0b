// Package simcache is a content-addressed cache of simulation
// results. Entries are keyed by a canonical SHA-256 hash of everything
// that determines a run's outcome — the architecture configuration,
// the kernel program text, and the workload identity — and nothing
// that does not (the observability recorder, the worker count). The
// determinism contract established by gpu.RunWorkers makes the scheme
// sound: a simulation is a pure function of (config, program,
// workload), so replaying a stored Entry is bit-identical to
// re-simulating.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
)

// keyVersion is folded into every key; bump it whenever the canonical
// encoding or the simulator's observable semantics change, so stale
// entries from older binaries can never alias fresh ones.
const keyVersion = "sisim-cache-v1"

// Key addresses one cached result: the SHA-256 of the canonical
// (config, program, workload) encoding.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (the disk cache's file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// RouteHash projects the key onto a 64-bit ring position (its first 8
// bytes, big-endian). SHA-256 output is uniformly distributed, so a
// fixed-window projection is as good a consistent-hashing input as
// rehashing, and the mapping is stable across processes — the property
// cluster routing needs so every coordinator agrees on a key's home
// node.
func (k Key) RouteHash() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// ParseKey decodes a hex key string.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("simcache: bad key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// Entry is the cached outcome of one simulation: everything needed to
// replay a gpu.Result without the kernel or the configuration object.
type Entry struct {
	// Policy is the config's human-readable SI policy label, kept so
	// serving layers can echo it without rebuilding the config.
	Policy string `json:"policy"`
	// Blocks is the processing-block count, the denominator for derived
	// per-cycle fractions.
	Blocks int `json:"blocks"`
	// Counters is the full raw counter set of the run.
	Counters stats.Counters `json:"counters"`
}

// Derived computes the normalized metrics for the cached result.
func (e Entry) Derived() stats.Derived { return e.Counters.Derive(e.Blocks) }

// KeyOf computes the content address of a simulation. The hash covers,
// in a fixed canonical order:
//
//   - the key-format version;
//   - every architecture and SI policy field of the configuration
//     except Trace (observability does not change results) — written
//     as name=value pairs so a future field can never silently alias
//     an old encoding;
//   - the kernel's semantic content: program register footprint and
//     per-instruction disassembly (not the program name), warp counts,
//     and the functional memory image fingerprint;
//   - workloadID, the caller's name for how the kernel was built
//     (e.g. "app/BFV1" or "micro/4"), which stands in for generator
//     state the kernel object cannot expose (BVH geometry, ray
//     generator parameters).
func KeyOf(cfg config.Config, k *sm.Kernel, workloadID string) Key {
	h := sha256.New()
	writeCanonicalConfig(h, cfg)
	fmt.Fprintf(h, "program.regs=%d;", k.Program.RegsPerThread)
	for pc := 0; pc < k.Program.Len(); pc++ {
		fmt.Fprintf(h, "i%d=%s;", pc, k.Program.At(pc))
	}
	fmt.Fprintf(h, "warps=%d;warpsPerCTA=%d;", k.NumWarps, k.WarpsPerCTA)
	fmt.Fprintf(h, "mem=%#x;", k.Memory.Fingerprint())
	fmt.Fprintf(h, "workload=%s;", workloadID)
	// The gas budget changes the observable outcome (a budget-killed run
	// has different — partial — results than a larger-budget run of the
	// same program), so it is part of the content address. Keyed only
	// when metering is enabled, mirroring the SchedPolicy rule: every
	// pre-budget cache entry stays valid for unmetered runs.
	if b := k.Budget; b.Enabled() {
		fmt.Fprintf(h, "budget=%d,%d,%d;", b.MaxCycles, b.MaxInstrs, b.MaxMemBytes)
	}
	var key Key
	h.Sum(key[:0])
	return key
}

// writeCanonicalConfig streams every result-affecting config field in
// a fixed order. Config.Trace, Config.Faults, Config.Check, and
// Config.Compiled are deliberately excluded: none of them changes
// simulation results (Compiled only turns basic-block fast-forward on
// or off, and the fast-forwarded and stepped regimes are bit-identical
// by contract), so a cached result serves both.
func writeCanonicalConfig(w io.Writer, c config.Config) {
	fmt.Fprintf(w, "v=%s;", keyVersion)
	fmt.Fprintf(w, "sms=%d;blocks=%d;slots=%d;", c.NumSMs, c.BlocksPerSM, c.WarpSlotsPerBlock)
	fmt.Fprintf(w, "l1d=%d;l1i=%d;l0i=%d;", c.L1DataBytes, c.L1InstrBytes, c.L0InstrBytes)
	fmt.Fprintf(w, "missLat=%d;hitLat=%d;texLat=%d;", c.L1MissLatency, c.L1DataHitLatency, c.TexExtraLatency)
	fmt.Fprintf(w, "line=%d;ibytes=%d;l0pen=%d;l1ipen=%d;", c.CacheLineBytes, c.InstrBytes, c.L0MissPenalty, c.L1IMissPenalty)
	fmt.Fprintf(w, "math=%d;regs=%d;nsb=%d;", c.MathLatency, c.RegFilePerBlock, c.ScoreboardsPerWarp)
	fmt.Fprintf(w, "rtStep=%d;rtBase=%d;", c.RTStepLatency, c.RTBaseLatency)
	fmt.Fprintf(w, "order=%d;", c.Order)
	fmt.Fprintf(w, "si=%t;yield=%t;yieldThresh=%d;trigger=%d;maxSub=%d;switch=%d;dws=%t;",
		c.SI.Enabled, c.SI.Yield, c.SI.YieldThreshold, c.SI.Trigger,
		c.SI.MaxSubwarps, c.SI.SwitchLatency, c.SI.DWS)
	// SchedPolicy is keyed only when it differs from LRR: the LRR
	// policy is bit-identical to the pre-zoo scheduler (pinned by the
	// golden corpus), so omitting the default keeps every previously
	// written cache entry valid, while any other policy — which does
	// change results — gets its own key space.
	if c.SchedPolicy != config.SchedLRR {
		fmt.Fprintf(w, "sched=%d;", c.SchedPolicy)
	}
}

// Stats counts cache traffic. Corrupt counts entries rejected (and
// discarded) because their stored checksum did not match. The
// resilience fields (retries, breaker transitions, disk errors,
// degraded) are populated only by caches that have those moving parts
// (NewResilient); plain backends report zeros.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt_evictions"`

	// Retries counts backend operations re-attempted after a transient
	// error (each extra attempt is one retry).
	Retries int64 `json:"retries,omitempty"`
	// DiskErrors counts backend operations that failed even after
	// retrying.
	DiskErrors int64 `json:"disk_errors,omitempty"`
	// BreakerTrips counts closed/half-open -> open transitions;
	// BreakerRecoveries counts half-open -> closed transitions.
	BreakerTrips      int64 `json:"breaker_trips,omitempty"`
	BreakerRecoveries int64 `json:"breaker_recoveries,omitempty"`
	// Degraded reports that the breaker is not closed: the cache is
	// serving from memory only.
	Degraded bool `json:"degraded,omitempty"`
}

// HitRate returns hits/(hits+misses), 0 when empty.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache stores simulation results by content address. Implementations
// are safe for concurrent use.
type Cache interface {
	// Get returns the entry for k and whether it was present.
	Get(k Key) (Entry, bool)
	// Put stores the entry for k, evicting older entries if needed.
	Put(k Key, e Entry)
	// Len returns the number of resident entries.
	Len() int
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// memory is a bounded in-memory LRU cache.
type memory struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *memEntry
	entries map[Key]*list.Element
	stats   Stats
}

type memEntry struct {
	key Key
	val Entry
}

// NewMemory returns an in-memory LRU cache bounded to maxEntries
// (minimum 1).
func NewMemory(maxEntries int) Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &memory{
		max:     maxEntries,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
	}
}

func (m *memory) Get(k Key) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		m.stats.Misses++
		return Entry{}, false
	}
	m.order.MoveToFront(el)
	m.stats.Hits++
	return el.Value.(*memEntry).val, true
}

func (m *memory) Put(k Key, e Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		el.Value.(*memEntry).val = e
		m.order.MoveToFront(el)
		return
	}
	m.entries[k] = m.order.PushFront(&memEntry{key: k, val: e})
	for m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
		m.stats.Evictions++
	}
}

func (m *memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

func (m *memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
