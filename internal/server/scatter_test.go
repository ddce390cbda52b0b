package server

import (
	"runtime"
	"testing"

	"subwarpsim/internal/gpu"
	"subwarpsim/internal/sm"
)

// scatterAsm stores one word per 4 KiB page: thread t writes page t,
// then 100 times one MiB further on, so no two of its stores share a
// page. The loop is uniform; the barrier only satisfies admission.
const scatterAsm = `
.regs 4
    S2R R0, SR3
    SHL R1, R0, 12
    MOVI R2, 0
    BSSY B0, done
loop:
    STG [R1+0], R2
    IADDI R1, R1, 1048576
    IADDI R2, R2, 1
    ISETP.LT P0, R2, 100
    @P0 BRA loop
done:
    BSYNC B0
    EXIT
`

// TestScatterStoresStayBounded runs a budgeted submission whose every
// store lands on a page of its own and holds the heap its result image
// retains to the page allowance each SM's view may hold, plus a word
// map's cost for every stored word: hostile scatter cannot make a
// submission cost a page per word. Its written words and fingerprint
// are pinned from the word-map image the paged views replaced.
func TestScatterStoresStayBounded(t *testing.T) {
	const wantWritten, wantFP = 25600, 0x471cf9430d1d9f2b
	cfg, kernel, _, err := SubmitSpec{Assembly: scatterAsm, MemFootprintBytes: 1 << 20}.Build(sm.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := gpu.Run(cfg, kernel)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	written := res.Memory.Written()
	if fp := res.Memory.Fingerprint(); written != wantWritten || fp != wantFP {
		t.Fatalf("Written %d, Fingerprint %#x; want %d, %#x", written, fp, wantWritten, uint64(wantFP))
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(float64(int64(cfg.NumSMs)*kernel.Budget.MaxMemBytes)*1.1) + 64*int64(written)
	if retained > limit {
		t.Errorf("the result image retains %d B of heap for %d scattered words, limit %d B", retained, written, limit)
	}
	t.Logf("%d words, %d B retained (%.1f B/word), limit %d B", written, retained, float64(retained)/float64(written), limit)
	runtime.KeepAlive(res)
}
