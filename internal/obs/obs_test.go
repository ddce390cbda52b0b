package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.SetMax(2) // lower, ignored
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge after SetMax(2) = %v, want 3.5", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after SetMax(9) = %v, want 9", got)
	}

	// Same name+label returns the identical instance.
	if r.Counter("test_jobs_total", "jobs") != c {
		t.Fatal("re-registration did not return the same counter")
	}
}

func TestNilSafety(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		rg *Registry
		ri *Ring
		tr *Trace
		ts *TraceStore
		o  *Observer
	)
	c.Inc()
	c.Add(3)
	_ = c.Value()
	g.Set(1)
	g.SetMax(1)
	_ = g.Value()
	h.Observe(1)
	_ = h.Count()
	_ = h.Quantile(0.5)
	if got := rg.Counter("x", "y"); got != nil {
		t.Fatal("nil registry returned non-nil counter")
	}
	rg.GaugeFunc("x", "y", func() float64 { return 0 })
	ri.Add("k", "", "", "")
	if ri.Events() != nil {
		t.Fatal("nil ring returned events")
	}
	tr.StartSpan("s")()
	tr.AddSpan("s", time.Now(), time.Now())
	if tr.Spans() != nil {
		t.Fatal("nil trace returned spans")
	}
	ts.Add(nil)
	if ts.Get("x") != nil || ts.IDs() != nil || ts.Len() != 0 {
		t.Fatal("nil trace store not inert")
	}
	o.ObserveStage("exec", 1)
	o.Event(context.Background(), EventFault, "site", "detail")
	if o.Logger() == nil {
		t.Fatal("nil observer Logger() returned nil")
	}
	if got := TraceIDFrom(context.Background()); got != "" {
		t.Fatalf("TraceIDFrom(empty ctx) = %q, want empty", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_metric", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as gauge did not panic")
		}
	}()
	r.Gauge("test_metric", "help")
}

func TestPrometheusExpositionLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_jobs_total", "Total jobs.").Add(7)
	r.Gauge("app_depth", "Queue depth.").Set(3)
	r.GaugeFunc("app_up", "Always 1.", func() float64 { return 1 })
	h := r.Histogram("app_latency_seconds", "Latency.", 1e-6)
	for _, v := range []int64{3, 90, 90, 1500, 40000} {
		h.Observe(v)
	}
	lh := r.Histogram("app_stage_seconds", "Stage latency.", 1e-6, "stage", `we"ird\st`)
	lh.Observe(250)
	r.Counter("app_by_workload_total", "Per workload.", "workload", "app/BFV1").Add(2)
	r.Counter("app_by_workload_total", "Per workload.", "workload", "micro/7").Add(9)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if err := Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("Lint rejected our own exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE app_jobs_total counter",
		"app_jobs_total 7",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="+Inf"} 5`,
		"app_latency_seconds_count 5",
		`app_by_workload_total{workload="app/BFV1"} 2`,
		`app_by_workload_total{workload="micro/7"} 9`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestLintCatchesMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "foo_total 1\n",
		"bad name":            "# TYPE 9bad counter\n9bad 1\n",
		"bad label":           "# TYPE a counter\na{x=\"unterminated} 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 7\n",
		"le not increasing": "# TYPE h histogram\n" +
			"h_bucket{le=\"5\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n",
		"duplicate TYPE": "# TYPE a counter\n# TYPE a counter\na 1\n",
	}
	for name, text := range cases {
		if err := Lint(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Lint accepted malformed input:\n%s", name, text)
		}
	}
}

func TestHistogramQuantilesAndScale(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat", "x", 1e-6)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", p50, p99)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// 1000 samples of <=1000us scale to <= 1e-3s bounds; the raw bound
	// 1023 must appear scaled, not in microseconds.
	if strings.Contains(buf.String(), `le="1023"`) {
		t.Fatalf("histogram bounds not scaled:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "test_lat_count 1000") {
		t.Fatalf("missing count:\n%s", buf.String())
	}
}

func TestTraceSpansAndPerfettoExport(t *testing.T) {
	tr := NewTrace("abc123")
	done := tr.StartSpan("admit")
	time.Sleep(time.Millisecond)
	done()
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.AddSpan("exec", start, time.Now())

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "admit" || spans[1].Name != "exec" {
		t.Fatalf("span order wrong: %+v", spans)
	}
	for _, s := range spans {
		if s.DurUS <= 0 {
			t.Fatalf("span %s has non-positive duration %d", s.Name, s.DurUS)
		}
	}

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, _ := ev["name"].(string); n != "" {
			names[n] = true
		}
	}
	for _, want := range []string{"admit", "exec", "process_name"} {
		if !names[want] {
			t.Errorf("perfetto export missing event %q", want)
		}
	}
}

func TestTraceContextPropagation(t *testing.T) {
	tr := NewTrace("")
	if len(tr.ID) != 16 {
		t.Fatalf("generated trace ID %q not 16 hex chars", tr.ID)
	}
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("TraceFrom did not round-trip")
	}
	if got := TraceIDFrom(ctx); got != tr.ID {
		t.Fatalf("TraceIDFrom = %q, want %q", got, tr.ID)
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(EventFault, "", "site", fmt.Sprintf("d%d", i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("d%d", 6+i); ev.Detail != want {
			t.Fatalf("event %d detail = %q, want %q (oldest-first)", i, ev.Detail, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq not monotonic: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(2)
	a, b, c := NewTrace("a"), NewTrace("b"), NewTrace("c")
	s.Add(a)
	s.Add(b)
	s.Add(c)
	if s.Get("a") != nil {
		t.Fatal("oldest trace not evicted")
	}
	if s.Get("b") != b || s.Get("c") != c {
		t.Fatal("recent traces missing")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Fatalf("IDs = %v, want [b c]", ids)
	}
}

func TestObserverStageHistograms(t *testing.T) {
	o := New("app", 16, 8, nil)
	o.ObserveStage("exec", 1500)
	o.ObserveStage("exec", 2500)
	o.ObserveStage("nosuchstage", 99) // dropped, no new label minted
	if got := o.StageHistogram("exec").Count(); got != 2 {
		t.Fatalf("exec count = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := o.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("observer exposition invalid: %v", err)
	}
	// Every stage pre-registered even with zero samples.
	for _, st := range Stages {
		if !strings.Contains(text, fmt.Sprintf(`stage=%q`, st)) {
			t.Errorf("exposition missing stage %q", st)
		}
	}
	if strings.Contains(text, "nosuchstage") {
		t.Error("unknown stage leaked into exposition")
	}
	for _, want := range []string{"app_go_goroutines", "app_go_heap_alloc_bytes", "app_build_info"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing runtime/build metric %q", want)
		}
	}
}

func TestBuildInfoString(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("Build() returned empty GoVersion")
	}
	if s := b.String(); !strings.Contains(s, "commit ") || !strings.Contains(s, b.GoVersion) {
		t.Fatalf("String() = %q missing commit/go version", s)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	lg := NopLogger()
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nop logger claims to be enabled")
	}
	lg.Info("should not panic", "k", "v")
}

func TestMultiLabelSeries(t *testing.T) {
	r := NewRegistry()
	ok := r.Counter("test_peer_requests_total", "per-peer requests",
		"peer", "w1", "outcome", "ok")
	errs := r.Counter("test_peer_requests_total", "per-peer requests",
		"peer", "w1", "outcome", "error")
	ok.Add(3)
	errs.Inc()
	// Identity: same ordered label set returns the same counter.
	if r.Counter("test_peer_requests_total", "per-peer requests",
		"peer", "w1", "outcome", "ok") != ok {
		t.Fatal("re-registration did not return the same multi-label counter")
	}
	r.GaugeFunc("test_ring_ownership", "ring share",
		func() float64 { return 0.25 }, "peer", "w1")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_peer_requests_total{peer="w1",outcome="ok"} 3`,
		`test_peer_requests_total{peer="w1",outcome="error"} 1`,
		`test_ring_ownership{peer="w1"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("multi-label exposition fails lint: %v", err)
	}
}
