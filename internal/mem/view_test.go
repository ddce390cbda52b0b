package mem

import "testing"

func TestViewIsolatesStoresUntilPublish(t *testing.T) {
	base := NewMemory()
	base.Store(0x100, 7)
	baseFP := base.Fingerprint()

	v := base.NewView()
	if got := v.Load(0x100); got != 7 {
		t.Fatalf("view Load(0x100) = %d, want base value 7", got)
	}
	v.Store(0x100, 42)
	v.Store(0x200, 9)
	if got := v.Load(0x100); got != 42 {
		t.Fatalf("view Load(0x100) = %d after private store, want 42", got)
	}
	if v.Written() != 2 {
		t.Fatalf("view Written = %d, want 2", v.Written())
	}

	// Publishing is absorbing into another view of the same base: the
	// sibling sees the stores only afterwards, the base never does.
	out := base.NewView()
	if got := out.Load(0x100); got != 7 {
		t.Fatalf("sibling Load(0x100) = %d before Absorb, want 7", got)
	}
	out.Absorb(v)
	if got := out.Load(0x100); got != 42 {
		t.Fatalf("result Load(0x100) = %d after Absorb, want 42", got)
	}
	if got := out.Load(0x200); got != 9 {
		t.Fatalf("result Load(0x200) = %d after Absorb, want 9", got)
	}
	if base.Load(0x100) != 7 || base.Written() != 1 || base.Fingerprint() != baseFP {
		t.Fatalf("base image changed: Load(0x100) = %d, Written = %d", base.Load(0x100), base.Written())
	}
}

func TestViewPublishOrderResolvesConflicts(t *testing.T) {
	// gpu.RunContext absorbs views in ascending SM order; the
	// later-absorbed view must win conflicting words, matching what
	// sequential simulation produced.
	base := NewMemory()
	v0 := base.NewView()
	v1 := base.NewView()
	v0.Store(0x40, 1)
	v1.Store(0x40, 2)
	out := base.NewView()
	out.Absorb(v0)
	out.Absorb(v1)
	if got := out.Load(0x40); got != 2 {
		t.Fatalf("result Load(0x40) = %d, want later-absorbed 2", got)
	}
}

// TestViewFingerprintIsTheMergedImage: a view hashes to what a Memory
// holding the same merged words hashes to, whether a word comes from
// the base, from the view, or from both.
func TestViewFingerprintIsTheMergedImage(t *testing.T) {
	base, want := NewMemory(), NewMemory()
	for i := uint64(0); i < 32; i++ {
		base.Store(i*4, uint32(i))
		want.Store(i*4, uint32(i))
	}
	v := base.NewView()
	if v.Fingerprint() != base.Fingerprint() {
		t.Fatal("an empty view must hash to its base")
	}
	for i := uint64(16); i < 48; i++ { // half shadow the base, half are new
		v.Store(i*4, uint32(1000+i))
		want.Store(i*4, uint32(1000+i))
	}
	if got := v.Fingerprint(); got != want.Fingerprint() {
		t.Fatalf("view fingerprint %#x, want merged image's %#x", got, want.Fingerprint())
	}
}

func TestViewLoadFallsThroughToDefault(t *testing.T) {
	base := NewMemory()
	v := base.NewView()
	if got, want := v.Load(0x1234), base.Load(0x1234); got != want {
		t.Fatalf("view Load = %#x, want base default %#x", got, want)
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	for i := uint64(0); i < 64; i++ {
		a.Store(i*4, uint32(i))
	}
	for i := int64(63); i >= 0; i-- {
		b.Store(uint64(i)*4, uint32(i))
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ for identical images written in opposite orders")
	}
	b.Store(0x1000, 5)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprints collide across different images")
	}
}
