package trace

import (
	"testing"

	"subwarpsim/internal/stats"
)

// emitN emits n issue events into r, tagged with sm so merged streams
// are distinguishable.
func emitN(r *Recorder, sm, n int) {
	for i := 0; i < n; i++ {
		r.Emit(int64(i), sm, 0, int32(sm*100+i), int32(i), 0xF, KindIssue, 1)
	}
}

func TestChildAbsorbReproducesSequentialStream(t *testing.T) {
	// The merged stream must read exactly as if both shards had emitted
	// into the parent one after the other, in absorb order.
	parent := NewRecorder()
	c0 := parent.Child()
	c1 := parent.Child()
	emitN(c1, 1, 3) // emission order deliberately reversed...
	emitN(c0, 0, 2)
	parent.Absorb(c0, c1) // ...absorb order decides the merged stream

	want := NewRecorder()
	emitN(want, 0, 2)
	emitN(want, 1, 3)

	if parent.Len() != want.Len() {
		t.Fatalf("merged Len = %d, want %d", parent.Len(), want.Len())
	}
	for i, ev := range parent.Events() {
		if ev != want.Events()[i] {
			t.Fatalf("event %d = %v, want %v", i, ev, want.Events()[i])
		}
	}
}

func TestChildInheritsFiltersAndAbsorbAppliesLimit(t *testing.T) {
	parent := NewRecorder()
	parent.FilterWarps([]int{0, 1, 2, 3, 4})
	parent.SetLimit(3)

	c0 := parent.Child()
	c0.Emit(0, 0, 0, 99, 0, 0xF, KindIssue, 0) // filtered warp: dropped silently
	emitN(c0, 0, 2)
	c1 := parent.Child()
	emitN(c1, 0, 2) // warps 0..1 pass the filter; one exceeds the limit

	parent.Absorb(c0, c1)
	if parent.Len() != 3 {
		t.Fatalf("merged Len = %d, want limit 3", parent.Len())
	}
	if parent.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1 (the event over the cap)", parent.Dropped())
	}
	for _, ev := range parent.Events() {
		if ev.Warp == 99 {
			t.Fatal("a child stored a warp outside its parent's filter")
		}
	}
}

func TestAbsorbMergesHistogramsAndSeries(t *testing.T) {
	parent := NewRecorder()
	parent.Series = stats.NewTimeSeries(100)

	c0 := parent.Child()
	c1 := parent.Child()
	if c0.Series == nil || c1.Series == nil {
		t.Fatal("children must inherit a series window when the parent samples one")
	}
	// Load-to-use pairing: a stall at cycle 10 resolved by a wakeup at
	// cycle 60 observes a 50-cycle latency in shard 0 only.
	c0.Emit(10, 0, 0, 5, 8, 0xF, KindStall, 0)
	c0.Emit(60, 0, 0, 5, 8, 0xF, KindWakeup, 0)
	c0.Sample(10, 4, 2, 1, true)
	c1.Sample(20, 2, 1, 0, false)

	parent.Absorb(c0, c1)
	total := int64(0)
	for _, h := range parent.Histograms() {
		total += h.Count()
	}
	if total == 0 {
		t.Fatal("merged histograms observed nothing")
	}
	if parent.Series.Len() != 1 {
		t.Fatalf("merged series Len = %d, want 1 window", parent.Series.Len())
	}
	w := parent.Series.Windows()[0]
	if w.Weight != 2 {
		t.Fatalf("merged window Weight = %d, want 2 samples", w.Weight)
	}
}

func TestTimeSeriesMergeAddsWindows(t *testing.T) {
	a := stats.NewTimeSeries(10)
	b := stats.NewTimeSeries(10)
	a.Add(5, 4, 1, 0, true)  // window 0
	b.Add(5, 2, 1, 0, false) // window 0
	b.Add(25, 8, 2, 1, true) // window 2
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3 windows", a.Len())
	}
	w0 := a.Windows()[0]
	if w0.Weight != 2 || w0.OccupancySum != 6 {
		t.Fatalf("window 0 = %+v, want weight 2, occupancy sum 6", w0)
	}
	if a.Windows()[1].Weight != 0 {
		t.Fatalf("window 1 = %+v, want empty gap window", a.Windows()[1])
	}
}

func TestTimeSeriesMergeWindowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge with mismatched windows must panic")
		}
	}()
	stats.NewTimeSeries(10).Merge(func() *stats.TimeSeries {
		o := stats.NewTimeSeries(20)
		o.Add(1, 1, 1, 1, true)
		return o
	}())
}
