package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMergeAddsCounts(t *testing.T) {
	a := Counters{Cycles: 100, IssuedInstrs: 10, IdleLoadCycles: 5, L1DMisses: 2}
	b := Counters{Cycles: 80, IssuedInstrs: 7, IdleLoadCycles: 3, L1DMisses: 1}
	a.Merge(b)
	if a.Cycles != 100 {
		t.Errorf("Cycles = %d, want max 100", a.Cycles)
	}
	if a.IssuedInstrs != 17 || a.IdleLoadCycles != 8 || a.L1DMisses != 3 {
		t.Errorf("sums wrong: %+v", a)
	}
}

// TestMergeFoldsEveryField sets one field at a time on both sides of a
// Merge and checks that exactly that field is folded: summed, or maxed
// for Cycles and MaxLiveSubwarps. A Counters field added without a
// Merge line fails here.
func TestMergeFoldsEveryField(t *testing.T) {
	maxed := map[string]bool{"Cycles": true, "MaxLiveSubwarps": true}
	typ := reflect.TypeOf(Counters{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s is %s; every counter is an int64", f.Name, f.Type)
		}
		var a, b Counters
		reflect.ValueOf(&a).Elem().Field(i).SetInt(3)
		reflect.ValueOf(&b).Elem().Field(i).SetInt(5)
		a.Merge(b)
		want := int64(8)
		if maxed[f.Name] {
			want = 5
		}
		var expect Counters
		reflect.ValueOf(&expect).Elem().Field(i).SetInt(want)
		if a != expect {
			t.Errorf("Merge folds %s wrong: got %+v, want %s = %d and every other field 0",
				f.Name, a, f.Name, want)
		}
	}
}

// TestCounterFieldsListEveryField reflects over Counters: CounterFields
// has one row per field, in declaration order, named by the Go field
// name, whose accessor returns that field and no other.
func TestCounterFieldsListEveryField(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	if len(CounterFields) != typ.NumField() {
		t.Fatalf("CounterFields has %d rows, Counters has %d fields", len(CounterFields), typ.NumField())
	}
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i, row := range CounterFields {
		f := typ.Field(i)
		if row.Name != f.Name {
			t.Errorf("CounterFields[%d] is %q, want %q (declaration order)", i, row.Name, f.Name)
		}
		if got, want := row.Of(&c), v.Field(i).Addr().Interface().(*int64); got != want {
			t.Errorf("CounterFields[%d] (%s) accessor returns another field", i, row.Name)
		}
	}
}

func TestMergeTakesMaxCycles(t *testing.T) {
	a := Counters{Cycles: 50}
	a.Merge(Counters{Cycles: 200})
	if a.Cycles != 200 {
		t.Errorf("Cycles = %d, want 200", a.Cycles)
	}
}

func TestMergeTakesMaxSubwarps(t *testing.T) {
	a := Counters{MaxLiveSubwarps: 2}
	a.Merge(Counters{MaxLiveSubwarps: 7})
	a.Merge(Counters{MaxLiveSubwarps: 3})
	if a.MaxLiveSubwarps != 7 {
		t.Errorf("MaxLiveSubwarps = %d, want 7", a.MaxLiveSubwarps)
	}
}

func TestDerive(t *testing.T) {
	c := Counters{
		Cycles:                     1000,
		IssuedInstrs:               2000,
		ActiveThreads:              2000 * 16,
		IdleLoadCycles:             400,
		IdleFetchCycles:            200,
		ExposedLoadStallsDivergent: 100,
		L1DAccesses:                100,
		L1DMisses:                  25,
		RTTraces:                   10,
		RTTraversalSteps:           50,
	}
	d := c.Derive(4)
	if got, want := d.IPC, 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("IPC = %v, want %v", got, want)
	}
	if got, want := d.ExposedStallFrac, 0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("ExposedStallFrac = %v, want %v", got, want)
	}
	if got, want := d.DivergentStallFrac, 0.025; math.Abs(got-want) > 1e-9 {
		t.Errorf("DivergentStallFrac = %v, want %v", got, want)
	}
	if got, want := d.FetchStallFrac, 0.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("FetchStallFrac = %v, want %v", got, want)
	}
	if got, want := d.SIMTEfficiency, 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("SIMTEfficiency = %v, want %v", got, want)
	}
	if got, want := d.L1DMissRate, 0.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("L1DMissRate = %v, want %v", got, want)
	}
	if got, want := d.AvgTraversalSteps, 5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgTraversalSteps = %v, want %v", got, want)
	}
}

func TestDeriveZeroSafe(t *testing.T) {
	var c Counters
	d := c.Derive(0)
	if d.IPC != 0 || d.ExposedStallFrac != 0 || d.L1DMissRate != 0 {
		t.Errorf("zero counters should derive zeros: %+v", d)
	}
}

func TestSpeedup(t *testing.T) {
	base := Counters{Cycles: 1063}
	test := Counters{Cycles: 1000}
	got := Speedup(base, test)
	if math.Abs(got-0.063) > 1e-9 {
		t.Errorf("Speedup = %v, want 0.063", got)
	}
	if Speedup(Counters{}, test) != 0 || Speedup(base, Counters{}) != 0 {
		t.Error("Speedup with zero cycles should be 0")
	}
	// Slowdown is negative.
	if Speedup(test, base) >= 0 {
		t.Error("slowdown should be negative")
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(100, 75); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("Reduction = %v, want 0.25", got)
	}
	if Reduction(0, 10) != 0 {
		t.Error("zero base should return 0")
	}
	if got := Reduction(100, 150); math.Abs(got+0.5) > 1e-9 {
		t.Errorf("increase should be negative, got %v", got)
	}
}

func TestMeanSpeedup(t *testing.T) {
	if MeanSpeedup(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	got := MeanSpeedup([]float64{0.02, 0.04, 0.06})
	if math.Abs(got-0.04) > 1e-9 {
		t.Errorf("mean = %v, want 0.04", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.063); got != "6.3%" {
		t.Errorf("Percent = %q, want 6.3%%", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "App", "Speedup")
	tbl.AddRow("BFV1", "19.8%")
	tbl.AddRow("AV1") // short row padded
	s := tbl.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "BFV1") || !strings.Contains(s, "19.8%") {
		t.Errorf("table missing content:\n%s", s)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tbl.NumRows())
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d, want 5:\n%s", len(lines), s)
	}
}

func TestTableAddRowGrows(t *testing.T) {
	tbl := NewTable("", "A", "B")
	tbl.AddRow("x", "y", "extra1", "extra2") // longer than the header
	s := tbl.String()
	for _, want := range []string{"x", "y", "extra1", "extra2"} {
		if !strings.Contains(s, want) {
			t.Errorf("long row lost cell %q:\n%s", want, s)
		}
	}
}

func TestMergeIdleBuckets(t *testing.T) {
	a := Counters{IdleCycles: 10, IdleLoadCycles: 4, IdleFetchCycles: 3, IdleSwitchCycles: 1, IdleBarrierCycles: 1, IdleNoWarpCycles: 1}
	b := Counters{IdleCycles: 6, IdleLoadCycles: 2, IdleFetchCycles: 1, IdleSwitchCycles: 1, IdleBarrierCycles: 1, IdleNoWarpCycles: 1}
	a.Merge(b)
	var sum int64
	for _, bk := range IdleBuckets {
		sum += bk.Of(a)
	}
	if sum != a.IdleCycles {
		t.Errorf("bucket sum %d != IdleCycles %d after merge", sum, a.IdleCycles)
	}
}

func TestStallAttributionSums(t *testing.T) {
	c := Counters{
		Cycles: 1000, IssuedInstrs: 400, IdleCycles: 600,
		IdleLoadCycles: 300, IdleFetchCycles: 150, IdleSwitchCycles: 100,
		IdleBarrierCycles: 40, IdleNoWarpCycles: 10,
	}
	s := StallAttribution(c).String()
	// "% time" divides by block-cycles, issued + idle: load is 300/1000.
	for _, want := range []string{"load-to-use stall", "instruction fetch", "subwarp switch", "barrier wait", "no warp", "total idle", "100.0%", "30.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("attribution missing %q:\n%s", want, s)
		}
	}
}

func TestMergeZeroIdentity(t *testing.T) {
	a := Counters{Cycles: 100, IssuedInstrs: 10, MaxLiveSubwarps: 3}
	before := a
	a.Merge(Counters{})
	if a != before {
		t.Errorf("merging the zero value changed counters: %+v != %+v", a, before)
	}
}

// Property: merging is commutative for additive fields and max fields.
func TestQuickMergeCommutative(t *testing.T) {
	f := func(c1, c2 uint16, i1, i2 uint16) bool {
		a := Counters{Cycles: int64(c1), IssuedInstrs: int64(i1)}
		b := Counters{Cycles: int64(c2), IssuedInstrs: int64(i2)}
		x, y := a, b
		x.Merge(b)
		y.Merge(a)
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Speedup(base, test) inverts within rounding when swapped:
// (1+s)*(1+s') == 1.
func TestQuickSpeedupInverse(t *testing.T) {
	f := func(b, tc uint16) bool {
		base := Counters{Cycles: int64(b) + 1}
		test := Counters{Cycles: int64(tc) + 1}
		s1 := Speedup(base, test)
		s2 := Speedup(test, base)
		return math.Abs((1+s1)*(1+s2)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
