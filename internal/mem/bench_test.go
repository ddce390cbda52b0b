package mem

import (
	"runtime"
	"testing"
)

// BenchmarkViewStore is the store layer's own number, per stored word:
// a warp's coalesced 32-word stores, stores one word per page (the
// hostile scatter a bounded view spills to its word map once its page
// allowance is spent), and absorbing one view into another, half of
// whose pages both stored. Each op starts from fresh views; only the
// stores or the Absorb are timed, and B/word counts what they allocate.
func BenchmarkViewStore(b *testing.B) {
	base := NewMemory()
	const words, allowance = 1 << 14, 1 << 20
	fill := func(v *View, from uint64, n int) *View {
		for w := uint64(0); w < uint64(n); w += 32 {
			for l := uint64(0); l < 32; l++ {
				v.Store(from+(w+l)*4, uint32(w+l))
			}
		}
		return v
	}
	b.Run("coalesced", func(b *testing.B) {
		perWord(b, words, func() func() {
			v := base.NewView(allowance)
			return func() { fill(v, 0, words) }
		})
	})
	b.Run("scattered", func(b *testing.B) {
		perWord(b, words, func() func() {
			v := base.NewView(allowance)
			return func() {
				for w := uint64(0); w < words; w++ {
					v.Store(w<<pageShift, uint32(w))
				}
			}
		})
	})
	b.Run("absorb", func(b *testing.B) {
		const pages = 64 // o's pages; v stored on the first half of them
		perWord(b, pages*pageWords, func() func() {
			v := fill(base.NewView(allowance), 0, pages/2*pageWords)
			o := fill(base.NewView(allowance), 0, pages*pageWords)
			return func() { v.Absorb(o) }
		})
	})
}

// perWord times op, built afresh by setup outside the timer for every
// iteration, and reports its cost per word of the words it handles.
func perWord(b *testing.B, words int, setup func() (op func())) {
	var ms runtime.MemStats
	var bytes uint64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		op := setup()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		op()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - before
	}
	n := float64(b.N) * float64(words)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/word")
	b.ReportMetric(float64(bytes)/n, "B/word")
}
