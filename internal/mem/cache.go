// Package mem models the SM-side memory structures: set-associative
// caches with LRU replacement and in-flight fill tracking over the
// paper's fixed-latency memory stub (Section IV-A), and the functional
// image loads read: a kernel's paged base Memory under per-SM Views.
package mem

import "fmt"

// Cache is a set-associative cache with LRU replacement. It tracks
// in-flight fills so that two requests to the same missing line within
// the fill window merge (MSHR-style) rather than paying the miss
// latency twice.
//
// Cache models timing only; data values live in Memory.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineBytes int
	lines     []way // sets*ways entries, set-major
	tick      int64 // LRU clock

	hits   int64
	misses int64
}

type way struct {
	valid   bool
	tag     uint64
	lastUse int64
	readyAt int64 // cycle at which an in-flight fill completes
}

// NewCache builds a cache of totalBytes capacity with the given
// associativity and line size. It panics on a non-positive or
// inconsistent geometry, since cache shapes are static configuration.
func NewCache(name string, totalBytes, ways, lineBytes int) *Cache {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("mem: bad cache geometry %d/%d/%d", totalBytes, ways, lineBytes))
	}
	linesTotal := totalBytes / lineBytes
	if linesTotal < ways {
		ways = linesTotal
	}
	sets := linesTotal / ways
	if sets == 0 {
		panic(fmt.Sprintf("mem: cache %q too small: %dB with %dB lines", name, totalBytes, lineBytes))
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		lines:     make([]way, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Hits returns the number of accesses that found the line present
// (including fills still in flight).
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of accesses that allocated a new line.
func (c *Cache) Misses() int64 { return c.misses }

// Access probes the cache for addr at time now.
//
// On a hit it returns (readyAt, true) where readyAt is when the data is
// available: now for a resident line, or the completion time of an
// in-flight fill.
//
// On a miss it calls fill(now) — typically the next cache level's
// Access — to learn when the next level can deliver the line, allocates
// the line (LRU victim) with that completion time, and returns
// (readyAt, false).
func (c *Cache) Access(addr uint64, now int64, fill func(now int64) int64) (int64, bool) {
	c.tick++
	tag := addr / uint64(c.lineBytes)
	set := int(tag % uint64(c.sets))
	base := set * c.ways

	victim := base
	for i := base; i < base+c.ways; i++ {
		w := &c.lines[i]
		if w.valid && w.tag == tag {
			w.lastUse = c.tick
			c.hits++
			ready := w.readyAt
			if ready < now {
				ready = now
			}
			return ready, true
		}
		if !w.valid {
			victim = i
		} else if c.lines[victim].valid && w.lastUse < c.lines[victim].lastUse {
			victim = i
		}
	}

	c.misses++
	readyAt := fill(now)
	if readyAt < now {
		readyAt = now
	}
	c.lines[victim] = way{valid: true, tag: tag, lastUse: c.tick, readyAt: readyAt}
	return readyAt, false
}

// Contains reports whether the line holding addr is resident (fill may
// still be in flight). It does not touch LRU state.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr / uint64(c.lineBytes)
	set := int(tag % uint64(c.sets))
	for i := set * c.ways; i < (set+1)*c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

// String describes the geometry, e.g. "L0I 16KB 4w/128B (32 sets)".
func (c *Cache) String() string {
	return fmt.Sprintf("%s %dKB %dw/%dB (%d sets)",
		c.name, c.sets*c.ways*c.lineBytes/1024, c.ways, c.lineBytes, c.sets)
}
