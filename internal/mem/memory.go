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

// get returns the word at aligned address a off its page p, which is
// nil when nothing on it was stored, and whether that word was stored.
func (p *page) get(a uint64) (uint32, bool) {
	i := (a >> 2) % pageWords
	if p != nil && p.stored[i/64]&(1<<(i%64)) != 0 {
		return p.words[i], true
	}
	return 0, false
}

// load reads aligned address a off its page p, which may be nil.
func (p *page) load(a uint64) uint32 {
	i := (a >> 2) % pageWords
	if p != nil && p.stored[i/64]&(1<<(i%64)) != 0 {
		return p.words[i]
	}
	return DefaultValue(a)
}

// put stores v at aligned address a on p and reports whether the word
// was not stored before.
func (p *page) put(a uint64, v uint32) bool {
	i := (a >> 2) % pageWords
	bit := uint64(1) << (i % 64)
	fresh := p.stored[i/64]&bit == 0
	p.stored[i/64] |= bit
	p.words[i] = v
	return fresh
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
	if p.put(a, v) {
		m.written++
	}
}

// Written returns how many distinct words have been stored.
func (m *Memory) Written() int { return m.written }

// count returns how many words of p are stored.
func (p *page) count() int {
	n := 0
	for _, set := range p.stored {
		n += bits.OnesCount64(set)
	}
	return n
}

// eachWord calls f with every stored word of pages, in no particular
// order.
func eachWord(pages map[uint64]*page, f func(a uint64, v uint32)) {
	for n, p := range pages {
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
	eachWord(m.pages, func(a uint64, v uint32) { fp += mixWord(a, v) })
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
// running, and gpu.Run absorbs the other SMs' views in SM order
// afterwards into SM 0's, which becomes the result — making the final
// image deterministic even for overlapping writes (higher-numbered SMs
// win, exactly as when SMs simulated one after another). Warps on
// different SMs consequently do not observe each other's stores
// mid-run; like CUDA kernels without atomics, cross-SM communication
// within a launch is undefined and unsupported.
//
// A view's stores live in pages, like its base's. A bounded view
// allocates pages for at most its allowance of bytes (see NewView); a
// store to a page it may not allocate goes to a spill map of words
// instead, so scattered stores — one word per page — cost a map entry
// each rather than a page each. A word lives in exactly one of the
// two: once the spill map holds anything, the view allocates no more
// pages.
type View struct {
	base    *Memory
	pages   map[uint64]*page  // own stores, by address >> pageShift
	spill   map[uint64]uint32 // own stores on pages the view may not allocate
	written int
	limit   int // pages the view may allocate; 0 means no limit

	// cn is the page Load or Store touched last: own is the view's
	// page there (nil if none), bp the base's (nil if nothing stored).
	cn      uint64
	own, bp *page
}

// NewView returns a fresh copy-on-write view of m that holds at most
// maxBytes of stored words in pages, rounded up to whole pages;
// maxBytes <= 0 means no limit. Stores beyond it spill to a word map.
func (m *Memory) NewView(maxBytes int64) *View {
	v := &View{base: m, cn: math.MaxUint64}
	if maxBytes > 0 {
		v.limit = int((maxBytes + 1<<pageShift - 1) >> pageShift)
	}
	return v
}

// at points the page cache at page n.
func (v *View) at(n uint64) {
	v.cn, v.own, v.bp = n, v.pages[n], v.base.pages[n]
}

// Load returns the 32-bit word at addr: the view's own store if one
// happened, the base image otherwise. It caches the pages it read, so
// unlike its base a view serves one goroutine at a time.
func (v *View) Load(addr uint64) uint32 {
	a := align(addr)
	if n := a >> pageShift; n != v.cn {
		v.at(n)
	}
	if val, ok := v.own.get(a); ok {
		return val
	}
	if v.own == nil && len(v.spill) > 0 {
		if val, ok := v.spill[a]; ok {
			return val
		}
	}
	return v.bp.load(a)
}

// Store writes a 32-bit word at addr into the view only.
func (v *View) Store(addr uint64, val uint32) {
	a := align(addr)
	if n := a >> pageShift; n != v.cn {
		v.at(n)
	}
	p := v.own
	if p == nil {
		if len(v.spill) > 0 || v.limit > 0 && len(v.pages) >= v.limit {
			v.spillStore(a, val)
			return
		}
		if v.pages == nil {
			v.pages = make(map[uint64]*page)
		}
		p = new(page)
		v.pages[v.cn], v.own = p, p
	}
	if p.put(a, val) {
		v.written++
	}
}

// spillStore writes aligned address a into the spill map.
func (v *View) spillStore(a uint64, val uint32) {
	if v.spill == nil {
		v.spill = make(map[uint64]uint32)
	}
	if _, ok := v.spill[a]; !ok {
		v.written++
	}
	v.spill[a] = val
}

// Written returns how many distinct words this view has stored.
func (v *View) Written() int { return v.written }

// Absorb moves o's stores into v, o winning every word both stored,
// and leaves o an empty view of its base. A page only o stored on
// moves by pointer; bitmaps merge only where both stored. Callers
// coordinate ordering: absorbing concurrently with loads or stores on
// v or o is a data race.
func (v *View) Absorb(o *View) {
	moved := false
	for n, op := range o.pages {
		vp := v.pages[n]
		if vp == nil {
			if v.pages == nil {
				v.pages = make(map[uint64]*page)
			}
			v.pages[n] = op
			v.written += op.count()
			moved = true
			continue
		}
		for j, set := range op.stored {
			v.written += bits.OnesCount64(set &^ vp.stored[j])
			vp.stored[j] |= set
			for ; set != 0; set &= set - 1 {
				i := j*64 + bits.TrailingZeros64(set)
				vp.words[i] = op.words[i]
			}
		}
	}
	if moved {
		// A moved page may cover words v had spilled: fold them in
		// where o did not store, so each word stays in one place.
		for a, val := range v.spill {
			p := v.pages[a>>pageShift]
			if p == nil {
				continue
			}
			if _, ok := p.get(a); ok {
				v.written-- // counted on the page and in the spill map
			} else {
				p.put(a, val)
			}
			delete(v.spill, a)
		}
	}
	for a, val := range o.spill {
		p := v.pages[a>>pageShift]
		if p == nil {
			v.spillStore(a, val)
			continue
		}
		if p.put(a, val) {
			v.written++
		}
	}
	v.cn, v.own, v.bp = math.MaxUint64, nil, nil
	*o = View{base: o.base, limit: o.limit, cn: math.MaxUint64}
}

// Fingerprint hashes the merged image — the base overlaid with the
// view's stores — to exactly the value Memory.Fingerprint gives a
// Memory holding those words.
func (v *View) Fingerprint() uint64 {
	var fp uint64
	n := v.written
	eachWord(v.pages, func(a uint64, val uint32) { fp += mixWord(a, val) })
	for a, val := range v.spill {
		fp += mixWord(a, val)
	}
	for pn, bp := range v.base.pages {
		own := v.pages[pn]
		for j, set := range bp.stored {
			if own != nil {
				set &^= own.stored[j]
			}
			for ; set != 0; set &= set - 1 {
				i := j*64 + bits.TrailingZeros64(set)
				a := pn<<pageShift | uint64(i)<<2
				if _, shadowed := v.spill[a]; shadowed {
					continue
				}
				fp += mixWord(a, bp.words[i])
				n++
			}
		}
	}
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
