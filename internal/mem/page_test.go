package mem

import (
	"math/rand"
	"strings"
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

// where reports whether v holds its own store of aligned address a in
// a page, in its spill map, or not at all.
func where(v *View, a uint64) string {
	if _, ok := v.pages[a>>pageShift].get(a); ok {
		return "page"
	}
	if _, ok := v.spill[a]; ok {
		return "spill"
	}
	return ""
}

// TestPagedMemoryMatchesWordMap applies the same random stores to a
// paged Memory and to a word map and requires identical loads, written
// counts and fingerprints; then views over that base, and one absorbing
// the others with overlapping stores, against the merged word maps. On
// odd trials every view may allocate only a page or two of the six
// randomAddr touches, so stores spill, and Absorb meets each pairing of
// page and spilled word for a word both views stored. Before each
// Absorb the target's page cache is pointed at a page the source
// stored on, and afterwards the emptied source is stored to: neither
// may show through. The target stores too, between its absorbs.
func TestPagedMemoryMatchesWordMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conflicts := map[string]bool{}
	for trial := 0; trial < 40; trial++ {
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

		allowance := func() int64 {
			if trial%2 == 0 {
				return 0
			}
			return int64(1+rng.Intn(2)) << pageShift
		}
		out, outOwn, merged := m.NewView(allowance()), wordMap{}, wordMap{}
		for a, v := range ref {
			merged[a] = v
		}
		for n := 0; n < 3; n++ {
			v, own := m.NewView(allowance()), wordMap{}
			for i := 1 + rng.Intn(500); i > 0; i-- {
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
				view[a] = val
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

			var probe uint64
			for a := range own {
				probe = a
				if w := where(out, a); w != "" {
					conflicts[w+"/"+where(v, a)] = true
				}
			}
			out.Load(probe)
			out.Absorb(v)
			for a, val := range own {
				outOwn[a], merged[a] = val, val
			}
			if got, want := out.Load(probe), merged.load(probe); got != want {
				t.Fatalf("trial %d absorb %d: Load(%#x) = %#x through a stale page cache, want %#x",
					trial, n, probe, got, want)
			}
			if v.Written() != 0 || v.Load(probe) != ref.load(probe) || v.Fingerprint() != m.Fingerprint() {
				t.Fatalf("trial %d absorb %d: the absorbed view is not empty", trial, n)
			}
			v.Store(probe, ^merged.load(probe))
			if got, want := out.Load(probe), merged.load(probe); got != want {
				t.Fatalf("trial %d absorb %d: a store to the absorbed view reached the target: Load(%#x) = %#x, want %#x",
					trial, n, probe, got, want)
			}
			for i := rng.Intn(50); i > 0; i-- { // the target keeps storing after it absorbed
				a, val := randomAddr(rng), rng.Uint32()
				out.Store(a, val)
				outOwn[align(a)], merged[align(a)] = val, val
				touched = append(touched, a)
			}
		}
		for _, a := range touched {
			if got, want := out.Load(a), merged.load(a); got != want {
				t.Fatalf("trial %d absorbed: Load(%#x) = %#x, want the last store's %#x", trial, a, got, want)
			}
		}
		if out.Written() != len(outOwn) || out.Fingerprint() != merged.fingerprint() {
			t.Fatalf("trial %d absorbed: Written %d, Fingerprint %#x; want %d, %#x",
				trial, out.Written(), out.Fingerprint(), len(outOwn), merged.fingerprint())
		}
	}
	for _, c := range []string{"page/page", "page/spill", "spill/page", "spill/spill"} {
		if !conflicts[c] {
			target, source, _ := strings.Cut(c, "/")
			t.Errorf("no Absorb met a word stored in the target's %s and the source's %s", target, source)
		}
	}
}

// TestViewsShareOneBaseConcurrently loads through many views of one
// base at once, each with its own stores, as concurrent runs of one
// kernel do, and checks every load against the base and a shadow map
// of the goroutine's own stores. Run under -race it shows that loading
// never writes the shared base.
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
			v, own := base.NewView(0), wordMap{}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				a := uint64(rng.Intn(5<<pageShift)) &^ 3
				if i%16 == 0 {
					val := uint32(g<<24 + i)
					v.Store(a, val)
					own[a] = val
				}
				want, ok := own[a]
				if !ok {
					want = base.Load(a)
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

// TestBoundedViewSpillsForGood: a view allocates pages up to its
// allowance and spills every store after that, and a view holding
// spilled words allocates no page, even with allowance left, so a
// later store on a spilled word's page cannot hide that word.
func TestBoundedViewSpillsForGood(t *testing.T) {
	base := NewMemory()
	v := base.NewView(1 << pageShift)
	v.Store(0, 1)
	v.Store(1<<pageShift, 2)
	v.Store(4, 3)
	if where(v, 0) != "page" || where(v, 4) != "page" || where(v, 1<<pageShift) != "spill" {
		t.Fatalf("one-page view: 0 in %q, 4 in %q, one page on in %q; want page, page, spill",
			where(v, 0), where(v, 4), where(v, 1<<pageShift))
	}

	out := base.NewView(8 << pageShift)
	out.Absorb(v) // out now holds v's spilled word, with allowance left
	out.Store(1<<pageShift+4, 4)
	if got := out.Load(1 << pageShift); got != 2 || where(out, 1<<pageShift+4) != "spill" {
		t.Fatalf("Load of the absorbed spilled word = %d, new store in %q; want 2, spill",
			got, where(out, 1<<pageShift+4))
	}
	if out.Written() != 4 {
		t.Fatalf("Written = %d, want 4", out.Written())
	}
}
