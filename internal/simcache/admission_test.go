package simcache

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// admissionKey is a real content address: the SHA-256 of a name.
func admissionKey(name string, i int) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("%s/%d", name, i))))
}

// serve asks c for k the way the daemon does: a Get, and on a miss a
// Put of the simulated result. It reports the Get's hit.
func serve(c Cache, k Key) bool {
	if _, ok := c.Get(k); ok {
		return true
	}
	c.Put(k, testEntry(1))
	return false
}

// TestAdmissionScanResistance: a scan of results asked for once must
// not push out the results asked for often. 8 hot keys, each read 4
// times after its miss, then 88 one-hit keys through a 16-entry
// cache; an LRU keeps none of the hot keys.
func TestAdmissionScanResistance(t *testing.T) {
	c := NewMemory(16)
	const hot = 8
	for i := 0; i < hot; i++ {
		serve(c, admissionKey("hot", i))
		for r := 0; r < 4; r++ {
			if !serve(c, admissionKey("hot", i)) {
				t.Fatalf("hot key %d missed right after its Put", i)
			}
		}
	}
	for i := 0; i < 88; i++ {
		serve(c, admissionKey("scan", i))
	}
	kept := 0
	for i := 0; i < hot; i++ {
		if _, ok := c.Get(admissionKey("hot", i)); ok {
			kept++
		}
	}
	if kept != hot {
		t.Errorf("%d/%d hot keys survived an 88-key one-hit scan, want all", kept, hot)
	}
}

// refLRU is the plain LRU the admission policy must beat.
type refLRU struct {
	max     int
	order   *list.List // front = most recent; values are Keys
	entries map[Key]*list.Element
}

func newRefLRU(max int) *refLRU {
	return &refLRU{max: max, order: list.New(), entries: map[Key]*list.Element{}}
}

func (l *refLRU) serve(k Key) bool {
	if el, ok := l.entries[k]; ok {
		l.order.MoveToFront(el)
		return true
	}
	l.entries[k] = l.order.PushFront(k)
	if l.order.Len() > l.max {
		delete(l.entries, l.order.Remove(l.order.Back()).(Key))
	}
	return false
}

// zipfTrace draws n ranks from Zipf(s = 1.0) over keys, by inverse CDF
// (math/rand's Zipf needs s > 1), with a fixed seed.
func zipfTrace(keys, n int, seed int64) []Key {
	cdf := make([]float64, keys)
	sum := 0.0
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Key, n)
	for i := range out {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		out[i] = admissionKey("zipf", min(r, keys-1))
	}
	return out
}

// TestAdmissionZipfBeatsLRU replays a seeded Zipf(1.0) trace over 96
// keys, the popularity cluster-mixed draws from, and requires the
// admission policy's hit rate to beat a plain LRU's by at least 0.05
// at capacity 16, one cluster-mixed worker's cache.
func TestAdmissionZipfBeatsLRU(t *testing.T) {
	trace := zipfTrace(96, 20000, 611)
	for _, capacity := range []int{16, 32} {
		c, ref := NewMemory(capacity), newRefLRU(capacity)
		refHits := 0
		for _, k := range trace {
			serve(c, k)
			if ref.serve(k) {
				refHits++
			}
		}
		got, want := c.Stats().HitRate(), float64(refHits)/float64(len(trace))
		t.Logf("capacity %d: hit rate %.3f, LRU %.3f", capacity, got, want)
		if capacity == 16 && got < want+0.05 {
			t.Errorf("capacity 16: hit rate %.3f, want at least the LRU's %.3f + 0.05", got, want)
		}
	}
}

// TestAdmissionProperties holds the Cache contract at every capacity
// 1–33 over a seeded mix of served requests and overwrites: a Put is
// readable by the next Get, Len never exceeds the bound, every Get
// counts as exactly one hit or miss, and every entry that left was
// counted as an eviction.
func TestAdmissionProperties(t *testing.T) {
	for capacity := 1; capacity <= 33; capacity++ {
		c := NewMemory(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		var gets, inserts int64
		for op := 0; op < 40*capacity+200; op++ {
			k := admissionKey("prop", rng.Intn(3*capacity+5))
			gets++
			_, hit := c.Get(k)
			if !hit {
				inserts++
			}
			// A miss is filled; a hit is sometimes overwritten, which
			// must neither evict nor grow the cache.
			if !hit || rng.Intn(4) == 0 {
				before := c.Len()
				want := testEntry(int64(op))
				c.Put(k, want)
				if hit && c.Len() != before {
					t.Fatalf("capacity %d: overwrite changed Len %d -> %d", capacity, before, c.Len())
				}
				gets++
				if got, ok := c.Get(k); !ok || got != want {
					t.Fatalf("capacity %d op %d: Get after Put = %+v, %v", capacity, op, got, ok)
				}
			}
			if n := c.Len(); n > capacity {
				t.Fatalf("capacity %d: Len %d over the bound", capacity, n)
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != gets {
			t.Errorf("capacity %d: hits %d + misses %d != %d Gets", capacity, s.Hits, s.Misses, gets)
		}
		if want := inserts - int64(c.Len()); s.Evictions != want {
			t.Errorf("capacity %d: %d evictions, want %d inserts - %d resident = %d",
				capacity, s.Evictions, inserts, c.Len(), want)
		}
	}
}

// TestAdmissionHitAllocatesNothing: counting demand must not cost a
// hit an allocation.
func TestAdmissionHitAllocatesNothing(t *testing.T) {
	c := NewMemory(64)
	for i := 0; i < 64; i++ {
		c.Put(admissionKey("alloc", i), testEntry(int64(i)))
	}
	k := admissionKey("alloc", 63)
	if got := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(k); !ok {
			t.Fatal("resident key missed")
		}
	}); got != 0 {
		t.Errorf("a hit Get allocates %v times, want 0", got)
	}
}

// TestAdmissionHugeCapacityIsSmall: the frequency sketch is capped, so
// a daemon started with an enormous -cache allocates no more than a
// moderate one before its first request.
func TestAdmissionHugeCapacityIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewMemory(1 << 30)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewMemory(1<<30) allocated %d bytes, want under 1 MiB", got)
	}
}

// BenchmarkMemoryGet prices a hit on a full 4096-entry cache, the
// daemon's default size.
func BenchmarkMemoryGet(b *testing.B) {
	const n = 4096
	c := NewMemory(n)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = admissionKey("bench", i)
		c.Put(keys[i], testEntry(int64(i)))
	}
	// Under admission some keys lost to later ones; time one that stayed.
	k := keys[n-1]
	for _, kk := range keys {
		if _, ok := c.Get(kk); ok {
			k = kk
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("resident key missed")
		}
	}
}
