package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"subwarpsim/internal/bits"
)

// emit is a test shorthand filling in sm=0, block=0.
func emit(r *Recorder, cycle int64, warp int32, pc int32, mask bits.Mask, kind Kind, arg int32) {
	r.Emit(cycle, 0, 0, warp, pc, mask, kind, arg)
}

func TestRecorderStoresEvents(t *testing.T) {
	r := NewRecorder()
	emit(r, 5, 0, 10, bits.FullMask, KindIssue, 0)
	emit(r, 8, 0, 10, bits.FullMask, KindStall, 2)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	ev := r.Events()[1]
	if ev.Cycle != 8 || ev.Kind != KindStall || ev.Arg != 2 || ev.PC != 10 {
		t.Errorf("bad event %+v", ev)
	}
	if !strings.Contains(ev.String(), "stall") {
		t.Errorf("String() = %q, want kind name", ev.String())
	}
}

func TestRecorderWarpFilter(t *testing.T) {
	r := NewRecorder()
	r.FilterWarps([]int{3})
	emit(r, 1, 2, 0, bits.FullMask, KindIssue, 0)
	emit(r, 1, 3, 0, bits.FullMask, KindIssue, 0)
	if r.Len() != 1 || r.Events()[0].Warp != 3 {
		t.Errorf("warp filter failed: %v", r.Events())
	}
	r.FilterWarps(nil) // clears
	emit(r, 2, 2, 0, bits.FullMask, KindIssue, 0)
	if r.Len() != 2 {
		t.Error("clearing the filter did not take effect")
	}
}

func TestRecorderLimitDrops(t *testing.T) {
	r := NewRecorder()
	r.SetLimit(2)
	for i := int64(0); i < 5; i++ {
		emit(r, i, 0, 0, bits.FullMask, KindIssue, 0)
	}
	if r.Len() != 2 || r.Dropped() != 3 {
		t.Errorf("len=%d dropped=%d, want 2/3", r.Len(), r.Dropped())
	}
}

func TestRecorderHistogramPairing(t *testing.T) {
	r := NewRecorder()
	// A load sets sb2 at cycle 10; dependent use demotes at cycle 14;
	// writeback wakes the subwarp at cycle 610.
	emit(r, 10, 0, 5, bits.FullMask, KindScbdSet, 2)
	emit(r, 14, 0, 6, bits.FullMask, KindStall, 2)
	emit(r, 610, 0, 6, bits.LaneMask(0), KindWakeup, 2)
	if n := r.LoadToUse.Count(); n != 1 || r.LoadToUse.Max() != 4 {
		t.Errorf("load-to-use: n=%d max=%d, want 1/4", n, r.LoadToUse.Max())
	}
	if n := r.StallDur.Count(); n != 1 || r.StallDur.Max() != 596 {
		t.Errorf("stall duration: n=%d max=%d, want 1/596", n, r.StallDur.Max())
	}
	// Activation at 620, demotion at 700 closes a residency period.
	emit(r, 620, 0, 6, bits.FullMask, KindActivate, 0)
	emit(r, 700, 0, 7, bits.FullMask, KindStall, 1)
	if n := r.Residency.Count(); n != 1 || r.Residency.Max() != 80 {
		t.Errorf("residency: n=%d max=%d, want 1/80", n, r.Residency.Max())
	}
	if len(r.Histograms()) != 3 {
		t.Error("Histograms() should return 3 entries")
	}
}

func TestRecorderHistogramsIgnoreFilters(t *testing.T) {
	r := NewRecorder()
	r.FilterWarps([]int{99}) // store no warp's events
	emit(r, 10, 0, 5, bits.FullMask, KindScbdSet, 2)
	emit(r, 14, 0, 6, bits.FullMask, KindStall, 2)
	if r.Len() != 0 {
		t.Error("filters should drop stored events")
	}
	if r.LoadToUse.Count() != 1 {
		t.Error("histograms must observe filtered events")
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	r := NewRecorder()
	emit(r, 0, 0, 0, bits.FullMask, KindIssue, 0)
	emit(r, 4, 0, 0, bits.FullMask, KindScbdSet, 1)
	emit(r, 8, 0, 0, bits.FullMask, KindStall, 1)
	emit(r, 8, 0, 8, bits.Mask(0xFFFF), KindSelectStart, 6)
	emit(r, 14, 0, 8, bits.Mask(0xFFFF), KindSelect, 0)
	emit(r, 600, 0, 0, bits.LaneMask(0), KindWakeup, 1)
	emit(r, 650, 0, 9, bits.FullMask, KindExit, 0)

	var b strings.Builder
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var names []string
	for _, ev := range out.TraceEvents {
		names = append(names, ev["name"].(string))
	}
	joined := strings.Join(names, "\n")
	for _, want := range []string{"subwarp-stall", "subwarp-select", "subwarp-wakeup", "select (switch latency)", "thread_name", "process_name"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q events:\n%s", want, joined)
		}
	}
	// Stall slice must span demotion to wakeup.
	for _, ev := range out.TraceEvents {
		if strings.HasPrefix(ev["name"].(string), "stalled") {
			if ts, dur := ev["ts"].(float64), ev["dur"].(float64); ts != 8 || dur != 592 {
				t.Errorf("stall slice ts=%v dur=%v, want 8/592", ts, dur)
			}
		}
	}
}

func TestASCIITimeline(t *testing.T) {
	r := NewRecorder()
	lo, hi := bits.Mask(0xFFFF), bits.FullMask.Minus(bits.Mask(0xFFFF))
	emit(r, 0, 0, 0, bits.FullMask, KindIssue, 0)
	emit(r, 10, 0, 0, lo, KindStall, 1)
	emit(r, 10, 0, 8, hi, KindActivate, 0)
	emit(r, 40, 0, 0, bits.LaneMask(lo.Lowest()), KindWakeup, 1)
	emit(r, 80, 0, 9, bits.FullMask, KindExit, 0)

	s := r.ASCIITimeline(TimelineOptions{Width: 20})
	if !strings.Contains(s, "w0") {
		t.Fatalf("timeline missing warp row:\n%s", s)
	}
	for _, glyph := range []string{"A", "S", "."} {
		if !strings.Contains(s, glyph) {
			t.Errorf("timeline missing state %q:\n%s", glyph, s)
		}
	}
	// Lanes 16-31 share one history -> a single collapsed row.
	if !strings.Contains(s, "16-31") {
		t.Errorf("identical lanes not collapsed:\n%s", s)
	}
}

func TestLaneRanges(t *testing.T) {
	cases := []struct {
		m    bits.Mask
		want string
	}{
		{0, "-"},
		{bits.LaneMask(0), "0"},
		{bits.Mask(0b1011), "0-1,3"},
		{bits.FullMask, "0-31"},
	}
	for _, c := range cases {
		if got := laneRanges(c.m); got != c.want {
			t.Errorf("laneRanges(%b) = %q, want %q", uint32(c.m), got, c.want)
		}
	}
}
