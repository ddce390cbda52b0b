package scoreboard

import (
	"strings"
	"testing"
	"testing/quick"

	"subwarpsim/internal/bits"
)

func TestNewFileBounds(t *testing.T) {
	for _, nsb := range []int{0, -1, MaxScoreboards + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFile(%d) did not panic", nsb)
				}
			}()
			NewFile(nsb)
		}()
	}
	if NewFile(8).NSB() != 8 {
		t.Error("NSB accessor")
	}
}

func TestIncDecSingleLane(t *testing.T) {
	f := NewFile(8)
	m := bits.LaneMask(3)
	if !f.Ready(m, 5) {
		t.Fatal("fresh scoreboard should be ready")
	}
	f.Inc(m, 5)
	if f.Ready(m, 5) {
		t.Fatal("after Inc should not be ready")
	}
	if f.LaneCount(3, 5) != 1 || f.Count(m, 5) != 1 {
		t.Fatal("count wrong")
	}
	f.Dec(3, 5)
	if !f.Ready(m, 5) {
		t.Fatal("after Dec should be ready")
	}
}

func TestWarpWideAliasing(t *testing.T) {
	// Subwarp A (lanes 0-15) has an outstanding load on sb2. Subwarp B
	// (lanes 16-31) consuming sb2 is clean per-subwarp but dirty
	// warp-wide — exactly the aliasing SI's replication avoids.
	f := NewFile(8)
	subA := bits.FirstN(16)
	subB := bits.FullMask.Minus(subA)
	f.Inc(subA, 2)
	if f.Ready(bits.FullMask, 2) {
		t.Error("warp-wide view must see subwarp A's outstanding count")
	}
	if !f.Ready(subB, 2) {
		t.Error("per-subwarp view of B must be clean")
	}
	if f.Count(bits.FullMask, 2) != 16 {
		t.Errorf("warp-wide count = %d, want 16", f.Count(bits.FullMask, 2))
	}
}

func TestMultipleOutstanding(t *testing.T) {
	f := NewFile(8)
	m := bits.LaneMask(0)
	f.Inc(m, 1)
	f.Inc(m, 1)
	f.Inc(m, 1)
	f.Dec(0, 1)
	if f.Ready(m, 1) {
		t.Error("2 outstanding remain")
	}
	f.Dec(0, 1)
	f.Dec(0, 1)
	if !f.Ready(m, 1) {
		t.Error("all returned")
	}
}

func TestUnderflowPanics(t *testing.T) {
	f := NewFile(8)
	defer func() {
		if recover() == nil {
			t.Error("Dec on zero counter should panic")
		}
	}()
	f.Dec(0, 0)
}

func TestIDBoundsPanics(t *testing.T) {
	f := NewFile(4)
	defer func() {
		if recover() == nil {
			t.Error("id out of range should panic")
		}
	}()
	f.Inc(bits.FullMask, 4)
}

func TestSaturation(t *testing.T) {
	f := NewFile(8)
	m := bits.LaneMask(0)
	for i := 0; i < maxCount+10; i++ {
		f.Inc(m, 0)
	}
	if f.LaneCount(0, 0) != maxCount {
		t.Errorf("count = %d, want saturated %d", f.LaneCount(0, 0), maxCount)
	}
}

func TestOutstanding(t *testing.T) {
	f := NewFile(8)
	if f.Outstanding(bits.FullMask) {
		t.Error("fresh file has nothing outstanding")
	}
	f.Inc(bits.LaneMask(7), 3)
	if !f.Outstanding(bits.FullMask) {
		t.Error("should be outstanding warp-wide")
	}
	if !f.Outstanding(bits.LaneMask(7)) {
		t.Error("should be outstanding for lane 7")
	}
	if f.Outstanding(bits.LaneMask(8)) {
		t.Error("lane 8 has nothing outstanding")
	}
}

func TestReadyEmptyMask(t *testing.T) {
	f := NewFile(8)
	f.Inc(bits.FullMask, 0)
	if !f.Ready(0, 0) {
		t.Error("empty mask is vacuously ready")
	}
}

// Property: for any sequence of Incs on disjoint masks, Count over the
// union equals the sum of counts over the parts.
func TestQuickCountAdditive(t *testing.T) {
	f := func(a, b uint32, id uint8) bool {
		sb := int(id) % 8
		ma := bits.Mask(a)
		mb := bits.Mask(b).Minus(ma)
		file := NewFile(8)
		file.Inc(ma, sb)
		file.Inc(mb, sb)
		return file.Count(ma.Union(mb), sb) == file.Count(ma, sb)+file.Count(mb, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Inc then Dec per lane restores readiness.
func TestQuickIncDecRoundTrip(t *testing.T) {
	f := func(m uint32, id uint8) bool {
		sb := int(id) % 8
		mask := bits.Mask(m)
		file := NewFile(8)
		file.Inc(mask, sb)
		mask.ForEach(func(lane int) { file.Dec(lane, sb) })
		return file.Ready(bits.FullMask, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDoubleReleasePanics: a second writeback for the same issue is a
// simulator bug and must be loud, not a silent wrap to 255.
func TestDoubleReleasePanics(t *testing.T) {
	f := NewFile(8)
	f.Inc(bits.LaneMask(2), 5)
	f.Dec(2, 5) // matching release
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release must panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "lane 2") || !strings.Contains(msg, "sb5") {
			t.Errorf("panic %v must name the lane and scoreboard", r)
		}
	}()
	f.Dec(2, 5)
}

// TestSaturationDrainsConservatively: a saturated counter has absorbed
// (and lost) issues beyond the maximum, so it drains in exactly
// maxCount writebacks and any further writeback is an underflow. The
// conservative direction is that the consumer stays blocked until the
// counter is fully drained.
func TestSaturationDrainsConservatively(t *testing.T) {
	f := NewFile(8)
	m := bits.LaneMask(0)
	for i := 0; i < maxCount+10; i++ {
		f.Inc(m, 0)
	}
	for i := 0; i < maxCount; i++ {
		if f.Ready(m, 0) {
			t.Fatalf("ready after %d of %d releases", i, maxCount)
		}
		f.Dec(0, 0)
	}
	if !f.Ready(m, 0) {
		t.Fatal("drained counter must read ready")
	}
	// The 10 over-saturation issues were absorbed; their writebacks
	// would now underflow.
	defer func() {
		if recover() == nil {
			t.Error("release beyond the saturated count must panic")
		}
	}()
	f.Dec(0, 0)
}

// TestPerLaneIndependence: counters are replicated per thread — a
// writeback by one lane must not unblock any other lane (the property
// SI's per-subwarp scoreboard views rely on).
func TestPerLaneIndependence(t *testing.T) {
	f := NewFile(8)
	f.Inc(bits.FullMask, 1)
	f.Dec(3, 1)
	if !f.Ready(bits.LaneMask(3), 1) {
		t.Error("released lane must be ready")
	}
	if f.Ready(bits.LaneMask(4), 1) {
		t.Error("other lanes must stay blocked")
	}
	if f.Ready(bits.FullMask, 1) {
		t.Error("warp-wide view must stay blocked while any lane is outstanding")
	}
	if got := f.Count(bits.FullMask, 1); got != 31 {
		t.Errorf("warp-wide count = %d, want 31", got)
	}
}
