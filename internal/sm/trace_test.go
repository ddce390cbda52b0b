package sm

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
)

// idleBucketSum adds up the five exclusive stall-attribution buckets.
func idleBucketSum(c stats.Counters) int64 {
	return c.IdleLoadCycles + c.IdleFetchCycles + c.IdleSwitchCycles +
		c.IdleBarrierCycles + c.IdleNoWarpCycles
}

// TestTracingDoesNotPerturbSimulation is the zero-overhead contract:
// attaching a recorder must not change a single counter.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	for _, si := range []bool{false, true} {
		cfg := testConfig()
		if si {
			cfg = cfg.WithSI(true, config.TriggerAnyStalled)
		}
		plain, _ := run(t, cfg, divergentIfElse(true), 2)

		traced := cfg
		traced.Trace = trace.NewRecorder()
		withRec, _ := run(t, traced, divergentIfElse(true), 2)

		if plain != withRec {
			t.Errorf("si=%v: counters diverge with tracing on:\n  off %+v\n  on  %+v",
				si, plain, withRec)
		}
	}
}

// TestRecordedRunIsTheServedRun: a recorder with a time series observes
// the run it is attached to. A straight-line run, unchecked, takes
// exactly as many SM.advance iterations recorded as unrecorded, with
// equal counters and memory, and its stream and series still account
// for every issued instruction and every block-cycle.
func TestRecordedRunIsTheServedRun(t *testing.T) {
	type outcome struct {
		iterations int
		counters   stats.Counters
		memory     uint64
	}
	drive := func(rec *trace.Recorder) outcome {
		cfg := testConfig()
		cfg.Check, cfg.Trace = false, rec
		s := allocSM(t, cfg, straightLine(2000), 8)
		var o outcome
		for done := false; !done; {
			var err error
			done, err = s.advance(1 << 40)
			if err != nil {
				t.Fatal(err)
			}
			o.iterations++
		}
		o.counters, o.memory = s.merge(), s.mem.Fingerprint()
		return o
	}
	rec := trace.NewRecorder()
	rec.Series = stats.NewTimeSeries(64)
	plain, recorded := drive(nil), drive(rec)
	if recorded != plain {
		t.Errorf("recording changed the run:\n  recorded   %+v\n  unrecorded %+v", recorded, plain)
	}
	if plain.iterations*4 > int(plain.counters.Cycles) {
		t.Errorf("%d iterations over %d cycles: the run barely fast-forwarded, the comparison is weak",
			plain.iterations, plain.counters.Cycles)
	}
	issues := int64(0)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindIssue {
			issues++
		}
	}
	if issues != plain.counters.IssuedInstrs {
		t.Errorf("issue events = %d, want IssuedInstrs = %d", issues, plain.counters.IssuedInstrs)
	}
	var weight, issued int64
	for _, w := range rec.Series.Windows() {
		weight += w.Weight
		issued += w.Issued
	}
	if weight != plain.counters.Cycles || issued != plain.counters.IssuedInstrs {
		t.Errorf("series covers %d block-cycles and %d issues, want %d and %d",
			weight, issued, plain.counters.Cycles, plain.counters.IssuedInstrs)
	}
}

// TestIdleBucketsSumToIdleCycles checks the attribution invariant: the
// five buckets partition the idle cycles exactly, per run.
func TestIdleBucketsSumToIdleCycles(t *testing.T) {
	cfgs := map[string]config.Config{
		"baseline":   testConfig(),
		"si-sos":     testConfig().WithSI(false, config.TriggerAllStalled),
		"si-both":    testConfig().WithSI(true, config.TriggerAnyStalled),
		"slow-fetch": config.Default(),
		"si-default": config.Default().WithSI(true, config.TriggerHalfStalled),
	}
	for name, cfg := range cfgs {
		cfg.NumSMs = 1
		cfg.BlocksPerSM = 1
		for _, warps := range []int{1, 3} {
			c, _ := run(t, cfg, divergentIfElse(true), warps)
			if got := idleBucketSum(c); got != c.IdleCycles {
				t.Errorf("%s warps=%d: bucket sum %d != IdleCycles %d (%+v)",
					name, warps, got, c.IdleCycles, c)
			}
		}
	}
}

// TestTraceEventStream checks the recorded stream carries the paper's
// subwarp transitions and agrees with the architectural counters.
func TestTraceEventStream(t *testing.T) {
	cfg := testConfig().WithSI(false, config.TriggerAllStalled)
	rec := trace.NewRecorder()
	cfg.Trace = rec
	c, _ := run(t, cfg, divergentIfElse(true), 1)

	counts := map[trace.Kind]int64{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	if counts[trace.KindIssue] != c.IssuedInstrs {
		t.Errorf("issue events = %d, want IssuedInstrs = %d",
			counts[trace.KindIssue], c.IssuedInstrs)
	}
	if counts[trace.KindStall] != c.SubwarpStalls {
		t.Errorf("stall events = %d, want SubwarpStalls = %d",
			counts[trace.KindStall], c.SubwarpStalls)
	}
	if counts[trace.KindSelect] != c.SubwarpSelects {
		t.Errorf("select events = %d, want SubwarpSelects = %d",
			counts[trace.KindSelect], c.SubwarpSelects)
	}
	if counts[trace.KindWakeup] == 0 || counts[trace.KindExit] == 0 {
		t.Errorf("missing wakeup/exit events: %v", counts)
	}
	// Cycle stamps never exceed the run length.
	for _, ev := range rec.Events() {
		if ev.Cycle < 0 || ev.Cycle > c.Cycles {
			t.Fatalf("event cycle %d outside run of %d cycles: %v", ev.Cycle, c.Cycles, ev)
		}
	}
	// The derived histograms saw the stall traffic.
	if rec.LoadToUse.Count() == 0 || rec.StallDur.Count() == 0 || rec.Residency.Count() == 0 {
		t.Errorf("histograms empty: load-to-use n=%d, stall n=%d, residency n=%d",
			rec.LoadToUse.Count(), rec.StallDur.Count(), rec.Residency.Count())
	}
}

// TestTraceTimeSeriesWeightMatchesRun checks the sampled block-cycles
// (stepped plus fast-forwarded) cover the whole run.
func TestTraceTimeSeriesWeightMatchesRun(t *testing.T) {
	cfg := testConfig().WithSI(false, config.TriggerAllStalled)
	rec := trace.NewRecorder()
	rec.Series = stats.NewTimeSeries(64)
	cfg.Trace = rec
	c, _ := run(t, cfg, divergentIfElse(true), 1)

	var weight int64
	for _, w := range rec.Series.Windows() {
		weight += w.Weight
	}
	// One block: total sampled block-cycles == run cycles.
	if weight != c.Cycles {
		t.Errorf("sampled block-cycles = %d, want Cycles = %d", weight, c.Cycles)
	}
}
