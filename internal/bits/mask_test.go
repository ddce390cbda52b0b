package bits

import (
	"testing"
	"testing/quick"
)

func TestLaneMask(t *testing.T) {
	for lane := 0; lane < WarpSize; lane++ {
		m := LaneMask(lane)
		if m.Count() != 1 {
			t.Errorf("LaneMask(%d).Count() = %d, want 1", lane, m.Count())
		}
		if !m.Has(lane) {
			t.Errorf("LaneMask(%d) does not contain lane %d", lane, lane)
		}
		if m.Lowest() != lane {
			t.Errorf("LaneMask(%d).Lowest() = %d", lane, m.Lowest())
		}
	}
}

func TestLaneMaskPanics(t *testing.T) {
	for _, lane := range []int{-1, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LaneMask(%d) did not panic", lane)
				}
			}()
			LaneMask(lane)
		}()
	}
}

func TestFirstN(t *testing.T) {
	cases := []struct {
		n    int
		want Mask
	}{
		{0, 0},
		{1, 0x1},
		{4, 0xF},
		{16, 0xFFFF},
		{32, FullMask},
	}
	for _, c := range cases {
		if got := FirstN(c.n); got != c.want {
			t.Errorf("FirstN(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestFirstNPanics(t *testing.T) {
	for _, n := range []int{-1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FirstN(%d) did not panic", n)
				}
			}()
			FirstN(n)
		}()
	}
}

func TestSetClear(t *testing.T) {
	var m Mask
	m = m.Set(3).Set(17).Set(31)
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if !m.Has(3) || !m.Has(17) || !m.Has(31) {
		t.Fatalf("missing expected lanes in %v", m)
	}
	m = m.Clear(17)
	if m.Has(17) || m.Count() != 2 {
		t.Fatalf("Clear(17) left %v", m)
	}
	// Clearing an absent lane is a no-op.
	if m.Clear(5) != m {
		t.Fatalf("Clear of absent lane changed mask")
	}
}

func TestEmptyMask(t *testing.T) {
	var m Mask
	if !m.Empty() {
		t.Error("zero Mask should be empty")
	}
	if m.Lowest() != -1 {
		t.Error("empty mask lowest should be -1")
	}
	if len(m.Lanes()) != 0 {
		t.Error("empty mask should have no lanes")
	}
}

func TestSetOps(t *testing.T) {
	a := FirstN(8)                   // lanes 0..7
	b := FirstN(12).Minus(FirstN(4)) // lanes 4..11

	if got := a.Union(b); got != FirstN(12) {
		t.Errorf("Union = %v, want %v", got, FirstN(12))
	}
	if got := a.Intersect(b); got != FirstN(8).Minus(FirstN(4)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != FirstN(4) {
		t.Errorf("Minus = %v, want %v", got, FirstN(4))
	}
	if a.Contains(b) {
		t.Error("a should not contain b")
	}
	if !FirstN(12).Contains(b) {
		t.Error("FirstN(12) should contain b")
	}
}

func TestLanesRoundTrip(t *testing.T) {
	m := Mask(0xDEADBEEF)
	var rebuilt Mask
	for _, lane := range m.Lanes() {
		rebuilt = rebuilt.Set(lane)
	}
	if rebuilt != m {
		t.Errorf("rebuilt = %v, want %v", rebuilt, m)
	}
}

func TestForEachOrder(t *testing.T) {
	m := Mask(0x80000001) // lanes 0 and 31
	var seen []int
	m.ForEach(func(lane int) { seen = append(seen, lane) })
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 31 {
		t.Errorf("ForEach visited %v, want [0 31]", seen)
	}
}

// Property: union and intersection behave as set algebra.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(a, b uint32) bool {
		ma, mb := Mask(a), Mask(b)
		u := ma.Union(mb)
		i := ma.Intersect(mb)
		// |A ∪ B| + |A ∩ B| == |A| + |B|
		if u.Count()+i.Count() != ma.Count()+mb.Count() {
			return false
		}
		// A \ B and B are disjoint and union back to A ∪ B.
		if !ma.Minus(mb).Intersect(mb).Empty() {
			return false
		}
		return ma.Minus(mb).Union(mb) == u.Union(mb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lanes() agrees with Has() for every lane.
func TestQuickLanesAgreeWithHas(t *testing.T) {
	f := func(a uint32) bool {
		m := Mask(a)
		set := make(map[int]bool, 32)
		for _, lane := range m.Lanes() {
			set[lane] = true
		}
		for lane := 0; lane < WarpSize; lane++ {
			if m.Has(lane) != set[lane] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the DropLowest/Lowest iteration idiom visits exactly the
// lanes ForEach visits, in the same ascending order.
func TestQuickDropLowestMatchesForEach(t *testing.T) {
	f := func(a uint32) bool {
		m := Mask(a)
		var want []int
		m.ForEach(func(lane int) { want = append(want, lane) })
		var got []int
		for it := m; !it.Empty(); it = it.DropLowest() {
			got = append(got, it.Lowest())
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
