package mem

// Memory is the functional backing store for global and texture
// address spaces. Timing comes from the fixed-latency stub in the SM
// model; Memory only supplies values so that loads return deterministic
// data and stores are visible to later loads.
//
// Unwritten locations read as a cheap deterministic hash of their
// address, which gives workload generators "random-looking" but
// reproducible data without materializing gigabytes.
type Memory struct {
	words map[uint64]uint32
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{words: make(map[uint64]uint32)}
}

// align rounds addr down to a 4-byte word boundary.
func align(addr uint64) uint64 { return addr &^ 3 }

// Load returns the 32-bit word at addr (word-aligned).
func (m *Memory) Load(addr uint64) uint32 {
	a := align(addr)
	if v, ok := m.words[a]; ok {
		return v
	}
	return DefaultValue(a)
}

// Store writes a 32-bit word at addr (word-aligned).
func (m *Memory) Store(addr uint64, v uint32) {
	m.words[align(addr)] = v
}

// Written returns how many distinct words have been stored.
func (m *Memory) Written() int { return len(m.words) }

// Snapshot returns a copy of every written word, keyed by aligned
// address.
func (m *Memory) Snapshot() map[uint64]uint32 {
	s := make(map[uint64]uint32, len(m.words))
	for a, v := range m.words {
		s[a] = v
	}
	return s
}

// Fingerprint returns an order-independent hash of the written image:
// two memories with identical (address, value) sets produce identical
// fingerprints regardless of write or iteration order. Unwritten
// default-valued words do not contribute. Differential-equivalence
// tests use it to assert that two runs retired the same architectural
// result.
func (m *Memory) Fingerprint() uint64 {
	var fp uint64
	for a, v := range m.words {
		fp += mixWord(a, v)
	}
	return fp ^ uint64(len(m.words))
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
type View struct {
	base  *Memory
	words map[uint64]uint32
}

// NewView returns a fresh copy-on-write view of m.
func (m *Memory) NewView() *View {
	return &View{base: m, words: make(map[uint64]uint32)}
}

// Load returns the 32-bit word at addr: the view's own store if one
// happened, the base image otherwise.
func (v *View) Load(addr uint64) uint32 {
	a := align(addr)
	if val, ok := v.words[a]; ok {
		return val
	}
	return v.base.Load(a)
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
	for a, val := range v.base.words {
		if _, shadowed := v.words[a]; !shadowed {
			fp += mixWord(a, val)
			n++
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
