package trace

import (
	"bytes"
	"io"
	"testing"

	"subwarpsim/internal/bits"
)

// fillMixed emits n events cycling eight warps through a stall /
// select / wakeup / yield round, so every pairing table, every open
// slice kind and every exporter arm is exercised while nothing grows
// with n except the stream.
func fillMixed(r *Recorder, n int) {
	round := []struct {
		kind Kind
		pc   int32
		mask bits.Mask
		arg  int32
	}{
		{KindIssue, 4, bits.FullMask, 0},
		{KindScbdSet, 4, bits.FullMask, 2},
		{KindStall, 5, bits.Mask(0xFFFF), 2},
		{KindSelectStart, -1, 0, 6},
		{KindSelect, 9, bits.Mask(0xFFFF0000), 6},
		{KindFetchMiss, 9, bits.Mask(0xFFFF0000), 20},
		{KindWriteback, 5, bits.LaneMask(0), 2},
		{KindScbdRelease, 5, bits.LaneMask(0), 2},
		{KindWakeup, 5, bits.LaneMask(0), 2},
		{KindRTStart, 9, bits.Mask(0xFFFF0000), 300},
		{KindYield, 9, bits.Mask(0xFFFF0000), 0},
		{KindActivate, 5, bits.Mask(0xFFFF), 0},
		{KindBarrierBlock, 6, bits.Mask(0xFFFF), 1},
		{KindReconverge, 7, bits.FullMask, 1},
		{KindActivate, 7, bits.FullMask, 1},
		{KindDivergeReady, 8, bits.Mask(0xFF), 2},
	}
	for i := 0; i < n; i++ {
		e := round[i%len(round)]
		warp := int32(i / len(round) % 8)
		r.Emit(int64(i), int(warp%2), 0, warp, e.pc, e.mask, e.kind, e.arg)
	}
}

// TestWriteChromeTraceAllocsIndependentOfLength pins the streaming
// exporter: what it allocates is set by the tracks it names, not by how
// many events it writes.
func TestWriteChromeTraceAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		r := NewRecorder()
		fillMixed(r, n)
		if r.Len() != n {
			t.Fatalf("stored %d of %d events", r.Len(), n)
		}
		return testing.AllocsPerRun(3, func() {
			if err := r.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	// The race detector's runtime allocates a little of its own, not
	// the same amount twice; without it the counts are exact.
	slack, limit := 0.0, 64.0
	if raceEnabled {
		slack, limit = 16, 128
	}
	if large > small+slack || small > large+slack {
		t.Errorf("export allocates %.0f objects for 10k events, %.0f for 100k", small, large)
	}
	if small > limit {
		t.Errorf("export allocates %.0f objects; want a small constant", small)
	}
}

// TestEmitZeroAllocWithinChunk pins the recording path: once the
// pairing tables have seen every warp, an Emit that does not open a new
// chunk allocates nothing.
func TestEmitZeroAllocWithinChunk(t *testing.T) {
	r := NewRecorder()
	const warm, batch, runs = 256, 256, 10
	if warm+(runs+1)*batch >= chunkEvents {
		t.Fatal("test must stay inside the first chunk")
	}
	fillMixed(r, warm)
	if got := testing.AllocsPerRun(runs, func() { fillMixed(r, batch) }); got != 0 {
		t.Errorf("Emit allocates %.1f objects per %d events inside a chunk, want 0", got, batch)
	}
	if len(r.chunks) != 1 {
		t.Errorf("stream spans %d chunks, want 1", len(r.chunks))
	}
}

// TestAbsorbTakesChunks: an under-limit shard's events reach the
// parent by chunk hand-over — the parent's chunks are the shard's own
// arrays — and the shard is left empty.
func TestAbsorbTakesChunks(t *testing.T) {
	parent := NewRecorder()
	emitN(parent, 0, 3) // the parent's own partly filled chunk stays first
	shard := parent.Child()
	emitN(shard, 1, chunkEvents+10)
	if len(shard.chunks) != 2 {
		t.Fatalf("shard holds %d chunks, want 2", len(shard.chunks))
	}
	first, second := &shard.chunks[0][0], &shard.chunks[1][0]

	parent.Absorb(shard)
	if parent.Len() != 3+chunkEvents+10 || parent.Dropped() != 0 {
		t.Fatalf("merged Len = %d, Dropped = %d", parent.Len(), parent.Dropped())
	}
	if len(parent.chunks) != 3 || &parent.chunks[1][0] != first || &parent.chunks[2][0] != second {
		t.Error("Absorb copied events instead of taking the shard's chunks")
	}
	if shard.Len() != 0 || len(shard.Events()) != 0 {
		t.Errorf("absorbed shard still holds %d events", shard.Len())
	}
	// The parent keeps emitting after the hand-over, in order.
	parent.Emit(99, 0, 0, 7, 0, 0xF, KindIssue, 1)
	ev := parent.Events()
	if len(ev) != parent.Len() || ev[len(ev)-1].Cycle != 99 || ev[2].SM != 0 || ev[3].SM != 1 {
		t.Error("stream order broken across the hand-over")
	}
}

// TestAbsorbLimitFallsMidChunk: the cap lands inside the second
// shard's second chunk. The merged stream must be exactly what one
// recorder with that limit would have stored, the rest dropped.
func TestAbsorbLimitFallsMidChunk(t *testing.T) {
	const limit = 2*chunkEvents + 100
	n0, n1 := chunkEvents+50, 2*chunkEvents

	parent := NewRecorder()
	parent.SetLimit(limit)
	c0, c1 := parent.Child(), parent.Child()
	emitN(c1, 1, n1)
	emitN(c0, 0, n0)
	parent.Absorb(c0, c1)

	want := NewRecorder()
	want.SetLimit(limit)
	emitN(want, 0, n0)
	emitN(want, 1, n1)

	if parent.Len() != limit || parent.Len() != want.Len() {
		t.Fatalf("merged Len = %d, sequential %d, limit %d", parent.Len(), want.Len(), limit)
	}
	if parent.Dropped() != int64(n0+n1-limit) || parent.Dropped() != want.Dropped() {
		t.Fatalf("Dropped = %d, sequential %d", parent.Dropped(), want.Dropped())
	}
	got, exp := parent.Events(), want.Events()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], exp[i])
		}
	}
	// At the cap nothing more is stored, by Emit or by Absorb.
	parent.Emit(1, 0, 0, 0, 0, 0xF, KindIssue, 1)
	late := parent.Child()
	emitN(late, 2, 5)
	parent.Absorb(late)
	if parent.Len() != limit || parent.Dropped() != int64(n0+n1-limit)+6 {
		t.Errorf("past the cap: Len = %d, Dropped = %d", parent.Len(), parent.Dropped())
	}
}

// BenchmarkWriteChromeTrace measures the exporter alone on a 100k-event
// stream: MB/s of document written, and allocations per export.
func BenchmarkWriteChromeTrace(b *testing.B) {
	r := NewRecorder()
	fillMixed(r, 100_000)
	var doc bytes.Buffer
	if err := r.WriteChromeTrace(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
