package obs

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
)

// Observer bundles the observability plane handed to the serving
// stack: the metric registry, the debug-event ring, the completed-
// trace store, and the structured logger. A nil *Observer is valid
// everywhere and observes nothing.
type Observer struct {
	Reg    *Registry
	Ring   *Ring
	Traces *TraceStore
	Log    *slog.Logger

	stageLat map[string]*Histogram
}

// Stage names instrumented along the request path, in pipeline order.
// Per-stage latency histograms are pre-registered for all of them so
// the `stage` label set is fixed and every scrape sees every series.
var Stages = []string{"admit", "cache", "dedup", "queue", "exec", "respond"}

// New builds an Observer with a fresh registry, a ring of ringSize
// events, a trace store of traceCap traces, and the given logger (nil
// means discard). Runtime and build-info gauges are pre-registered.
func New(namespace string, ringSize, traceCap int, log *slog.Logger) *Observer {
	if log == nil {
		log = NopLogger()
	}
	o := &Observer{
		Reg:      NewRegistry(),
		Ring:     NewRing(ringSize),
		Traces:   NewTraceStore(traceCap),
		Log:      log,
		stageLat: make(map[string]*Histogram),
	}
	for _, st := range Stages {
		o.stageLat[st] = o.Reg.Histogram(
			namespace+"_stage_latency_seconds",
			"Wall-clock latency of each request-path stage.",
			1e-6, "stage", st)
	}
	registerRuntimeMetrics(o.Reg, namespace)
	registerBuildInfo(o.Reg, namespace)
	return o
}

// ObserveStage records one stage latency sample in microseconds. The
// stage must be one of Stages; unknown stages are dropped rather than
// minting unbounded label values.
func (o *Observer) ObserveStage(stage string, us int64) {
	if o == nil {
		return
	}
	if h := o.stageLat[stage]; h != nil {
		h.Observe(us)
	}
}

// StageHistogram returns the latency histogram for a stage (nil for
// unknown stages or a nil observer).
func (o *Observer) StageHistogram(stage string) *Histogram {
	if o == nil {
		return nil
	}
	return o.stageLat[stage]
}

// Logger returns the observer's logger, or a discard logger.
func (o *Observer) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return NopLogger()
	}
	return o.Log
}

// Event records an incident in the ring, pulling the trace ID from ctx.
func (o *Observer) Event(ctx context.Context, kind, site, detail string) {
	if o == nil {
		return
	}
	o.Ring.Add(kind, TraceIDFrom(ctx), site, detail)
}

// registerRuntimeMetrics exposes Go runtime health as gauges read at
// scrape time.
func registerRuntimeMetrics(r *Registry, ns string) {
	r.GaugeFunc(ns+"_go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc(ns+"_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc(ns+"_go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	r.CounterFunc(ns+"_go_gc_cycles_total", "Completed GC cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}

// BuildInfo describes the running binary, from debug.ReadBuildInfo.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
	Module    string `json:"module,omitempty"`
}

// Build returns the binary's build info. Fields missing from the
// embedded metadata (e.g. no VCS stamping in test binaries) are empty.
func Build() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Module = info.Main.Path
	if info.GoVersion != "" {
		bi.GoVersion = info.GoVersion
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.Revision = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
}

// String renders the build info for -version output.
func (b BuildInfo) String() string {
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	if b.Modified {
		rev += "+dirty"
	}
	return fmt.Sprintf("commit %s (%s)", rev, b.GoVersion)
}

// registerBuildInfo exposes the standard <ns>_build_info{...} 1 gauge.
func registerBuildInfo(r *Registry, ns string) {
	b := Build()
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	}
	r.GaugeFunc(ns+"_build_info", "Build metadata; the value is always 1.",
		func() float64 { return 1 }, "revision", rev)
}

// nopHandler discards all records. slog.DiscardHandler exists only
// from Go 1.25, and go.mod pins an older language version.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that discards everything.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }
