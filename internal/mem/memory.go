package mem

import (
	"math"
	"math/bits"
)

// Memory is the functional backing store for global and texture
// address spaces: a kernel's base image. Timing comes from the
// fixed-latency stub in the SM model; Memory only supplies values so
// that loads return deterministic data and stores are visible to later
// loads.
//
// Unwritten locations read as a cheap deterministic hash of their
// address, which gives workload generators "random-looking" but
// reproducible data without materializing gigabytes. Generators write
// densely, so stored words live in pages. Load writes nothing: runs
// share one image as long as nobody stores to it meanwhile.
type Memory struct {
	pages   map[uint64]*page // by address >> pageShift
	written int
}

// A page is 4 KiB of words and a bitmap of those stored.
const pageShift, pageWords = 12, 1 << (12 - 2)

type page struct {
	words  [pageWords]uint32
	stored [pageWords / 64]uint64
}

// load reads aligned address a off its page p, which is nil when
// nothing on it was stored.
func (p *page) load(a uint64) uint32 {
	i := (a >> 2) % pageWords
	if p != nil && p.stored[i/64]&(1<<(i%64)) != 0 {
		return p.words[i]
	}
	return DefaultValue(a)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// align rounds addr down to a 4-byte word boundary.
func align(addr uint64) uint64 { return addr &^ 3 }

// Load returns the 32-bit word at addr (word-aligned).
func (m *Memory) Load(addr uint64) uint32 {
	a := align(addr)
	return m.pages[a>>pageShift].load(a)
}

// Store writes a 32-bit word at addr (word-aligned).
func (m *Memory) Store(addr uint64, v uint32) {
	a := align(addr)
	p := m.pages[a>>pageShift]
	if p == nil {
		p = new(page)
		m.pages[a>>pageShift] = p
	}
	i := (a >> 2) % pageWords
	if bit := uint64(1) << (i % 64); p.stored[i/64]&bit == 0 {
		p.stored[i/64] |= bit
		m.written++
	}
	p.words[i] = v
}

// Written returns how many distinct words have been stored.
func (m *Memory) Written() int { return m.written }

// each calls f with every stored word, in no particular order.
func (m *Memory) each(f func(a uint64, v uint32)) {
	for n, p := range m.pages {
		for j, set := range p.stored {
			for ; set != 0; set &= set - 1 {
				i := j*64 + bits.TrailingZeros64(set)
				f(n<<pageShift|uint64(i)<<2, p.words[i])
			}
		}
	}
}

// Fingerprint returns an order-independent hash of the written image:
// two memories with identical (address, value) sets produce identical
// fingerprints regardless of write order or layout. Unwritten
// default-valued words do not contribute. Differential tests compare
// it across runs, and cache keys hash it.
func (m *Memory) Fingerprint() uint64 {
	var fp uint64
	m.each(func(a uint64, v uint32) { fp += mixWord(a, v) })
	return fp ^ uint64(m.written)
}

// mixWord hashes one written (address, value) pair; Fingerprint sums
// the mixes, a commutative combine that makes it iteration-order free.
func mixWord(a uint64, v uint32) uint64 {
	z := a ^ uint64(v)<<32 ^ uint64(v)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// View is a copy-on-write overlay over a base Memory: loads read
// through to the base until the view itself has stored the word, and
// stores stay in the view. Nothing a view does writes its base, so any
// number of views — of one run or of concurrent runs — share a base
// image safely.
//
// Views are the unit of memory sharding for parallel simulation: each
// SM owns one view, so concurrent SMs never touch a shared image while
// running, and gpu.Run absorbs the views in SM order afterwards into
// one result view — making the final image deterministic even for
// overlapping writes (higher-numbered SMs win, exactly as when SMs
// simulated one after another). Warps on different SMs consequently do
// not observe each other's stores mid-run; like CUDA kernels without
// atomics, cross-SM communication within a launch is undefined and
// unsupported.
//
// A view's stores stay a word map: the sandbox's store budget counts
// words, and a page per sparse store would hold a thousand times that.
type View struct {
	base  *Memory
	words map[uint64]uint32
	pn    uint64 // the base page Load read last, cached in pg
	pg    *page
}

// NewView returns a fresh copy-on-write view of m.
func (m *Memory) NewView() *View {
	return &View{base: m, words: make(map[uint64]uint32), pn: math.MaxUint64}
}

// Load returns the 32-bit word at addr: the view's own store if one
// happened, the base image otherwise. It caches the base page it read,
// so unlike its base a view serves one goroutine at a time.
func (v *View) Load(addr uint64) uint32 {
	a := align(addr)
	if val, ok := v.words[a]; ok {
		return val
	}
	if n := a >> pageShift; n != v.pn {
		v.pn, v.pg = n, v.base.pages[n]
	}
	return v.pg.load(a)
}

// Store writes a 32-bit word at addr into the view only.
func (v *View) Store(addr uint64, val uint32) {
	v.words[align(addr)] = val
}

// Written returns how many distinct words this view has stored.
func (v *View) Written() int { return len(v.words) }

// Absorb folds o's stores into v, o winning every word both stored.
// Callers coordinate ordering: absorbing concurrently with loads or
// stores on v is a data race.
func (v *View) Absorb(o *View) {
	for a, val := range o.words {
		v.words[a] = val
	}
}

// Fingerprint hashes the merged image — the base overlaid with the
// view's stores — to exactly the value Memory.Fingerprint gives a
// Memory holding those words.
func (v *View) Fingerprint() uint64 {
	var fp uint64
	n := len(v.words)
	for a, val := range v.words {
		fp += mixWord(a, val)
	}
	v.base.each(func(a uint64, val uint32) {
		if _, shadowed := v.words[a]; !shadowed {
			fp += mixWord(a, val)
			n++
		}
	})
	return fp ^ uint64(n)
}

// DefaultValue is the deterministic content of unwritten memory:
// a 32-bit mix of the address (splitmix-style), stable across runs.
func DefaultValue(addr uint64) uint32 {
	z := addr + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return uint32(z ^ (z >> 31))
}
