package gpu

import (
	"testing"
	"time"

	"subwarpsim/internal/config"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

// BenchmarkRecordedRun measures what attaching the cycle recorder
// costs a run: Ctrl under Both,N>=0.5 on one worker, once in the
// stepped regime with no recorder (Compiled=false — the regime a
// recorder forces) and once with a fresh recorder attached. ns/op is
// the recorded run alone; events/s is its recording rate and overhead-x
// the recorded over the stepped wall time, the benchmark harness's
// trace.record_overhead_x.
func BenchmarkRecordedRun(b *testing.B) {
	p, err := workload.ProfileByName("Ctrl")
	if err != nil {
		b.Fatal(err)
	}
	base := defaultConfig().WithSI(true, config.TriggerHalfStalled)
	base.Compiled = false
	// run builds a fresh kernel off the clock and simulates it; only
	// the recorded runs count towards ns/op and allocs/op.
	run := func(rec *trace.Recorder) time.Duration {
		k, err := workload.Megakernel(p)
		if err != nil {
			b.Fatal(err)
		}
		cfg := base
		cfg.Trace = rec
		if rec != nil {
			b.StartTimer()
			defer b.StopTimer()
		}
		t0 := time.Now()
		if _, err := RunWorkers(cfg, k, 1); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	var stepped, recorded time.Duration
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	// A trace's first run in a process also traverses its rays (the
	// shared hit table workload.Megakernel attaches); keep that off
	// both clocks, or the stepped run alone would pay it.
	run(nil)
	for i := 0; i < b.N; i++ {
		stepped += run(nil)
		rec := trace.NewRecorder()
		recorded += run(rec)
		events += rec.Len()
	}
	b.ReportMetric(float64(events)/recorded.Seconds(), "events/s")
	b.ReportMetric(recorded.Seconds()/stepped.Seconds(), "overhead-x")
}
