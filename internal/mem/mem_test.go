package mem

import (
	"testing"
	"testing/quick"
)

// fillAt returns a fill function that reports data ready after lat
// cycles and counts invocations.
func fillAt(lat int64, calls *int) func(int64) int64 {
	return func(now int64) int64 {
		if calls != nil {
			*calls++
		}
		return now + lat
	}
}

func TestCacheGeometry(t *testing.T) {
	c := NewCache("L0I", 16<<10, 4, 128)
	if c.Sets() != 32 || c.String() != "L0I 16KB 4w/128B (32 sets)" {
		t.Errorf("geometry = %s, want 32 sets of 4 ways", c)
	}
	// A cache smaller than ways*line clamps associativity.
	small := NewCache("tiny", 256, 4, 128)
	if small.String() != "tiny 0KB 2w/128B (1 sets)" {
		t.Errorf("tiny cache = %s, want one set of 2 ways", small)
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	for _, geo := range [][3]int{{0, 4, 128}, {1024, 0, 128}, {1024, 4, 0}, {64, 1, 128}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache%v did not panic", geo)
				}
			}()
			NewCache("bad", geo[0], geo[1], geo[2])
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := NewCache("c", 1<<10, 2, 128)
	calls := 0
	ready, hit := c.Access(0x100, 10, fillAt(300, &calls))
	if hit || ready != 310 || calls != 1 {
		t.Fatalf("first access: ready=%d hit=%v calls=%d", ready, hit, calls)
	}
	// Second access while the fill is in flight merges: hit, same ready.
	ready, hit = c.Access(0x17C, 20, fillAt(300, &calls)) // same 128B line
	if !hit || ready != 310 || calls != 1 {
		t.Fatalf("merged access: ready=%d hit=%v calls=%d", ready, hit, calls)
	}
	// After the fill completes, hits are immediate.
	ready, hit = c.Access(0x100, 500, fillAt(300, &calls))
	if !hit || ready != 500 {
		t.Fatalf("resident access: ready=%d hit=%v", ready, hit)
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("stats = %d/%d, want 2 hits 1 miss", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped single set of 2 ways: 256B cache, 128B lines.
	c := NewCache("c", 256, 2, 128)
	fill := fillAt(0, nil)
	c.Access(0*128, 0, fill) // A
	c.Access(1*128, 1, fill) // B  (set layout: both map to set 0? tags 0,1 -> sets 0,1 for 1 set? )
	// With 1 set, both land in set 0, filling both ways.
	c.Access(0*128, 2, fill) // touch A so B is LRU
	c.Access(2*128, 3, fill) // C evicts B
	if !c.Contains(0 * 128) {
		t.Error("A should be resident")
	}
	if c.Contains(1 * 128) {
		t.Error("B should have been evicted (LRU)")
	}
	if !c.Contains(2 * 128) {
		t.Error("C should be resident")
	}
}

func TestSetIndexing(t *testing.T) {
	// 2 sets, 1 way each: lines with even tags go to set 0, odd to set 1.
	c := NewCache("c", 256, 1, 128)
	if c.Sets() != 2 {
		t.Fatalf("sets = %d, want 2", c.Sets())
	}
	fill := fillAt(0, nil)
	c.Access(0*128, 0, fill) // tag 0 -> set 0
	c.Access(1*128, 1, fill) // tag 1 -> set 1
	if !c.Contains(0) || !c.Contains(128) {
		t.Fatal("different sets should not conflict")
	}
	c.Access(2*128, 2, fill) // tag 2 -> set 0, evicts tag 0
	if c.Contains(0) {
		t.Error("tag 0 should be evicted by tag 2")
	}
	if !c.Contains(128) {
		t.Error("tag 1 must survive")
	}
}

func TestThrashingConflictMisses(t *testing.T) {
	// Working set larger than capacity causes misses on every pass.
	c := NewCache("c", 512, 2, 128) // 4 lines capacity
	fill := fillAt(100, nil)
	now := int64(0)
	for pass := 0; pass < 3; pass++ {
		for line := uint64(0); line < 8; line++ { // 8-line working set
			c.Access(line*128, now, fill)
			now += 10
		}
	}
	if c.Hits() != 0 {
		t.Errorf("LRU with cyclic overflow working set should never hit, got %d hits", c.Hits())
	}
	if c.Misses() != 24 {
		t.Errorf("misses = %d, want 24", c.Misses())
	}
}

func TestFitWorkingSetAllHitsAfterWarmup(t *testing.T) {
	c := NewCache("c", 1<<10, 4, 128) // 8 lines
	fill := fillAt(100, nil)
	for line := uint64(0); line < 8; line++ {
		c.Access(line*128, 0, fill)
	}
	for pass := 0; pass < 4; pass++ {
		for line := uint64(0); line < 8; line++ {
			if _, hit := c.Access(line*128, 1000, fill); !hit {
				t.Fatalf("pass %d line %d missed", pass, line)
			}
		}
	}
}

func TestReadyNeverBeforeNow(t *testing.T) {
	c := NewCache("c", 1<<10, 4, 128)
	c.Access(0, 100, fillAt(50, nil))
	// Access the line again long after the fill completed.
	ready, hit := c.Access(0, 1000, fillAt(50, nil))
	if !hit || ready != 1000 {
		t.Errorf("ready = %d, want clamped to now=1000", ready)
	}
	// Fill function misbehaving (returns past time) is clamped too.
	ready, _ = c.Access(9999, 100, func(now int64) int64 { return 5 })
	if ready != 100 {
		t.Errorf("ready = %d, want clamped to now=100", ready)
	}
}

func TestCacheString(t *testing.T) {
	s := NewCache("L0I", 16<<10, 4, 128).String()
	if s == "" {
		t.Error("empty String")
	}
}

func TestMemoryStoreLoad(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
	// Word aligning: offsets within the word alias.
	if got := m.Load(0x1002); got != 42 {
		t.Errorf("unaligned Load = %d, want 42", got)
	}
	m.Store(0x1003, 7)
	if got := m.Load(0x1000); got != 7 {
		t.Errorf("aliased Store: Load = %d, want 7", got)
	}
	if m.Written() != 1 {
		t.Errorf("Written = %d, want 1", m.Written())
	}
}

func TestMemoryDefaultDeterministic(t *testing.T) {
	a := NewMemory()
	b := NewMemory()
	for addr := uint64(0); addr < 1024; addr += 4 {
		if a.Load(addr) != b.Load(addr) {
			t.Fatalf("default value at %#x differs between instances", addr)
		}
	}
	// Different addresses should (almost always) have different values.
	same := 0
	for addr := uint64(0); addr < 4096; addr += 4 {
		if a.Load(addr) == a.Load(addr+4) {
			same++
		}
	}
	if same > 3 {
		t.Errorf("default hash too colliding: %d adjacent equal pairs", same)
	}
}

// Property: after Store(addr, v), Load(addr) == v for any addr/v.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint32) bool {
		m.Store(addr, v)
		return m.Load(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an immediate re-access of any address is always a hit with
// ready time unchanged (idempotence of residency).
func TestQuickCacheSecondAccessHits(t *testing.T) {
	c := NewCache("c", 8<<10, 4, 128)
	f := func(addr uint64, lat uint16) bool {
		now := int64(1000)
		r1, _ := c.Access(addr, now, fillAt(int64(lat), nil))
		r2, hit := c.Access(addr, now, fillAt(int64(lat), nil))
		return hit && r2 == r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
