package mem

import (
	"math/rand"
	"sync"
	"testing"
)

// wordMap is the reference image: one map entry per stored word.
type wordMap map[uint64]uint32

func (m wordMap) load(addr uint64) uint32 {
	if v, ok := m[align(addr)]; ok {
		return v
	}
	return DefaultValue(align(addr))
}

func (m wordMap) fingerprint() uint64 {
	var fp uint64
	for a, v := range m {
		fp += mixWord(a, v)
	}
	return fp ^ uint64(len(m))
}

// randomAddr picks addresses that straddle page boundaries, sit at
// unaligned offsets, and repeat, over a few pages and one far away.
func randomAddr(rng *rand.Rand) uint64 {
	pg := uint64(rng.Intn(4))
	if rng.Intn(8) == 0 {
		pg = 1<<40 + uint64(rng.Intn(2))
	}
	base := pg << pageShift
	switch rng.Intn(3) {
	case 0: // just either side of the page's start
		return base + uint64(rng.Intn(16)) - 8
	case 1: // anywhere in the page, unaligned
		return base + uint64(rng.Intn(1<<pageShift))
	default: // a small set of words, overwritten often
		return base + uint64(rng.Intn(8))*4
	}
}

// TestPagedMemoryMatchesWordMap applies the same random stores to a
// paged Memory and to a word map and requires identical loads, written
// counts and fingerprints; then views over that base, and one absorbing
// the others with overlapping stores, against the merged word maps.
func TestPagedMemoryMatchesWordMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m, ref := NewMemory(), wordMap{}
		var touched []uint64
		for i := rng.Intn(3000); i > 0; i-- {
			a, v := randomAddr(rng), rng.Uint32()
			m.Store(a, v)
			ref[align(a)] = v
			touched = append(touched, a, a+1, a+4, a-4)
		}
		for _, a := range touched {
			if got, want := m.Load(a), ref.load(a); got != want {
				t.Fatalf("trial %d: Load(%#x) = %#x, want %#x", trial, a, got, want)
			}
		}
		if m.Written() != len(ref) || m.Fingerprint() != ref.fingerprint() {
			t.Fatalf("trial %d: Written %d, Fingerprint %#x; want %d, %#x",
				trial, m.Written(), m.Fingerprint(), len(ref), ref.fingerprint())
		}

		out, merged := m.NewView(), wordMap{}
		for a, v := range ref {
			merged[a] = v
		}
		for n := 0; n < 3; n++ {
			v, own := m.NewView(), wordMap{}
			for i := rng.Intn(500); i > 0; i-- {
				a, val := randomAddr(rng), rng.Uint32()
				v.Store(a, val)
				own[align(a)] = val
				touched = append(touched, a)
			}
			view := wordMap{}
			for a, val := range ref {
				view[a] = val
			}
			for a, val := range own {
				view[a], merged[a] = val, val
			}
			for _, a := range touched {
				if got, want := v.Load(a), view.load(a); got != want {
					t.Fatalf("trial %d view %d: Load(%#x) = %#x, want %#x", trial, n, a, got, want)
				}
			}
			if v.Written() != len(own) || v.Fingerprint() != view.fingerprint() {
				t.Fatalf("trial %d view %d: Written %d, Fingerprint %#x; want %d, %#x",
					trial, n, v.Written(), v.Fingerprint(), len(own), view.fingerprint())
			}
			out.Absorb(v)
		}
		for _, a := range touched {
			if got, want := out.Load(a), merged.load(a); got != want {
				t.Fatalf("trial %d absorbed: Load(%#x) = %#x, want the last store's %#x", trial, a, got, want)
			}
		}
		if out.Fingerprint() != merged.fingerprint() {
			t.Fatalf("trial %d absorbed: Fingerprint %#x, want %#x", trial, out.Fingerprint(), merged.fingerprint())
		}
	}
}

// TestViewsShareOneBaseConcurrently loads through many views of one
// base at once, each with its own stores, as concurrent runs of one
// kernel do. Run under -race it shows that loading never writes the
// shared base.
func TestViewsShareOneBaseConcurrently(t *testing.T) {
	base := NewMemory()
	for a := uint64(0); a < 4<<pageShift; a += 4 {
		base.Store(a, uint32(a))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := base.NewView()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				a := uint64(rng.Intn(5<<pageShift)) &^ 3
				if i%16 == 0 {
					v.Store(a, uint32(g))
				}
				want := base.Load(a)
				if _, own := v.words[a]; own {
					want = uint32(g)
				}
				if got := v.Load(a); got != want {
					t.Errorf("goroutine %d: Load(%#x) = %#x, want %#x", g, a, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
