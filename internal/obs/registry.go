// Package obs is the serving stack's unified observability plane: a
// typed metric registry with Prometheus text exposition (registry.go,
// prom.go), request-scoped tracing with per-stage spans (trace.go), a
// bounded in-memory debug-event ring (ring.go), and structured slog
// logging — bundled by Observer (obs.go).
//
// The package deliberately separates the two observability domains the
// repo has: internal/trace records *simulated* time (cycle-stamped SM
// pipeline events), while obs records *wall-clock* serving time
// (request latencies, cache traffic, degradation state). The SI
// mechanism roll-ups bridge them: per-job simulation counters
// aggregate into service-level metrics so the paper's mechanism stays
// observable in production.
//
// Everything here is nil-gated: a nil *Observer, *Registry, *Ring, or
// *Trace is valid and does nothing, so the simulator's zero-allocation
// hot loop is untouched when observability is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"subwarpsim/internal/stats"
)

// metricKind is the Prometheus family type.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric. The zero value is
// ready to use; methods are nil-safe so disabled observability costs
// one branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a concurrency-safe distribution built on
// stats.Histogram's power-of-two buckets. Samples are recorded in an
// integer base unit (e.g. microseconds); Scale converts that unit for
// exposition (1e-6 renders microsecond samples as Prometheus seconds).
type Histogram struct {
	mu    sync.Mutex
	h     stats.Histogram
	scale float64
}

// Observe records one sample in the histogram's base unit.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// Quantile returns the q-th quantile bucket bound in the base unit.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

// Max returns the largest sample in the base unit.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Max()
}

// snapshot returns a copy of the underlying distribution.
func (h *Histogram) snapshot() stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// sample is one exposed time series: an ordered label-pair list
// (possibly empty) plus its value source.
type sample struct {
	labelKey string   // "" for unlabeled; joined pairs otherwise
	labels   []string // name, value, name, value, ...

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family is one metric name with HELP/TYPE and its samples.
type family struct {
	name string
	help string
	kind metricKind

	mu      sync.Mutex
	samples []*sample
	byLabel map[string]*sample
}

func (f *family) sampleFor(labels []string, mk func() *sample) *sample {
	key := strings.Join(labels, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byLabel[key]; ok {
		return s
	}
	s := mk()
	s.labelKey = key
	s.labels = append([]string(nil), labels...)
	f.byLabel[key] = s
	f.samples = append(f.samples, s)
	return s
}

// Registry is an ordered collection of metric families. All methods
// are safe for concurrent use and nil-safe (a nil registry registers
// nothing and exposes nothing).
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor finds or creates the named family, enforcing one TYPE per
// name. Registering the same name with a different kind panics: that
// is a programming error that would emit invalid exposition.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byLabel: make(map[string]*sample)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// register finds or creates one series of the named family. labels
// are name, value pairs in order (e.g. "peer", "w1", "outcome", "ok");
// an odd trailing name is ignored. mk builds a new series' value
// source. A nil registry hands back a detached empty series.
func (r *Registry) register(name, help string, kind metricKind, labels []string, mk func() *sample) *sample {
	if r == nil {
		return &sample{}
	}
	return r.familyFor(name, help, kind).sampleFor(labels[:len(labels)&^1], mk)
}

// Counter registers (or finds) one counter series.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, kindCounter, labels,
		func() *sample { return &sample{counter: &Counter{}} }).counter
}

// Gauge registers (or finds) one settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, kindGauge, labels,
		func() *sample { return &sample{gauge: &Gauge{}} }).gauge
}

// CounterFunc registers a counter series whose value is read at
// exposition time (for counts already maintained elsewhere). fn must
// be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, labels, func() *sample { return &sample{fn: fn} })
}

// GaugeFunc registers a gauge series whose value is read at exposition
// time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, labels, func() *sample { return &sample{fn: fn} })
}

// Histogram registers (or finds) one histogram series. scale converts
// the base unit at exposition (0 means 1, i.e. unscaled).
func (r *Registry) Histogram(name, help string, scale float64, labels ...string) *Histogram {
	return r.register(name, help, kindHistogram, labels,
		func() *sample { return &sample{hist: &Histogram{scale: scale}} }).hist
}

// snapshotFamilies copies the family list (samples are then read under
// each family's lock by the exposition writer).
func (r *Registry) snapshotFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.fams...)
}

// orderedSamples returns a family's samples sorted by label for
// deterministic exposition.
func (f *family) orderedSamples() []*sample {
	f.mu.Lock()
	out := append([]*sample(nil), f.samples...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labelKey < out[j].labelKey })
	return out
}

// value reads a scalar sample's current value.
func (s *sample) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	default:
		return 0
	}
}

// labelSuffix renders `{name="value",...}`, or "" for unlabeled
// samples. extra appends further pairs (the histogram writer's le
// label). Go's %q escaping covers the exposition format's \\, \" and
// \n.
func (s *sample) labelSuffix(extra ...string) string {
	var pairs []string
	for i := 0; i+1 < len(s.labels); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", s.labels[i], s.labels[i+1]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}
