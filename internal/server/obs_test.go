package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"subwarpsim/internal/faults"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/simcache"
)

// requiredSeries are the metric names the acceptance criteria demand
// on every scrape, before any job has run.
var requiredSeries = []string{
	"sisimd_queue_depth",
	"sisimd_cache_hits_total",
	"sisimd_cache_misses_total",
	"sisimd_stage_latency_seconds_bucket",
	"sisimd_degraded",
	"sisimd_breaker_state",
	"sisimd_si_idle_cycles_total",
	"sisimd_si_subwarp_switches_total",
	"sisimd_si_tst_overflows_total",
	"sisimd_si_max_live_subwarps",
	"sisimd_go_goroutines",
	"sisimd_build_info",
	// ISSUE 9 sandbox instruments: pre-registered labeled series for
	// every admission reason and budget resource, plus the default
	// tenant's queue-depth gauge and the rate-limit counter.
	`sisimd_admission_rejects_total{reason="cfg"}`,
	`sisimd_admission_rejects_total{reason="parse"}`,
	`sisimd_budget_kills_total{resource="cycles"}`,
	`sisimd_budget_kills_total{resource="instructions"}`,
	`sisimd_budget_kills_total{resource="memory"}`,
	`sisimd_tenant_queue_depth{tenant="default"}`,
	"sisimd_rate_limited_total",
}

func scrape(t *testing.T, ts *httptest.Server, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics (Accept %q) = %d", accept, resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestMetricsContentNegotiation: text/plain gets valid Prometheus
// exposition with every required series; the default stays the
// backward-compatible JSON shape.
func TestMetricsContentNegotiation(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One real job so per-workload and latency series have data too.
	if _, code := postJob(t, ts, JobSpec{Microbench: 4}); code != http.StatusOK {
		t.Fatalf("job = %d", code)
	}

	text, cty := scrape(t, ts, "text/plain")
	if !strings.HasPrefix(cty, "text/plain") {
		t.Errorf("prometheus content-type = %q", cty)
	}
	if err := obs.Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	for _, name := range requiredSeries {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing required series %s", name)
		}
	}
	// SI roll-ups actually accumulated from the simulation.
	if !strings.Contains(text, `sisimd_si_workload_jobs_total{workload="micro/4"} 1`) {
		t.Errorf("per-workload SI roll-up missing:\n%s", grepLines(text, "si_workload"))
	}

	jsonBody, cty := scrape(t, ts, "")
	if !strings.HasPrefix(cty, "application/json") {
		t.Errorf("default content-type = %q", cty)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(jsonBody), &m); err != nil {
		t.Fatalf("JSON /metrics no longer decodes into Metrics: %v", err)
	}
	if m.JobsTotal != 1 || m.JobsDone != 1 {
		t.Errorf("jobs_total=%d jobs_done=%d, want 1/1", m.JobsTotal, m.JobsDone)
	}
	// The satellite additions: p99 plus separate queue-wait/exec.
	var raw map[string]any
	json.Unmarshal([]byte(jsonBody), &raw)
	for _, k := range []string{"latency_p99_ms", "queue_wait_p50_ms", "queue_wait_p99_ms", "exec_p50_ms", "exec_p99_ms"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("JSON /metrics missing %s", k)
		}
	}
	if m.ExecP99MS <= 0 {
		t.Errorf("exec_p99_ms = %v after a completed job, want > 0", m.ExecP99MS)
	}
}

// logCapture collects slog records for assertion.
type logCapture struct {
	mu    sync.Mutex
	lines []string
	buf   bytes.Buffer
	h     slog.Handler
}

func newLogCapture() *logCapture {
	c := &logCapture{}
	c.h = slog.NewTextHandler(&syncWriter{c: c}, &slog.HandlerOptions{Level: slog.LevelDebug})
	return c
}

type syncWriter struct{ c *logCapture }

func (w *syncWriter) Write(p []byte) (int, error) {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.c.lines = append(w.c.lines, string(p))
	return len(p), nil
}

func (c *logCapture) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// TestNotCachedLogsAtDebug: a declined only-if-cached request is an
// answer, logged at debug level; a malformed request still warns.
func TestNotCachedLogsAtDebug(t *testing.T) {
	capture := newLogCapture()
	s := newTestServer(t, Options{Workers: 1, Obs: obs.New(MetricsNamespace, 64, 16, slog.New(capture.h))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(body string, hdr string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if hdr != "" {
			req.Header.Set("Cache-Control", hdr)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"microbench":4}`, "only-if-cached"); code != http.StatusGatewayTimeout {
		t.Fatalf("only-if-cached miss = %d, want 504", code)
	}
	if code := post(`{`, ""); code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", code)
	}
	var declined, warned int
	for _, line := range capture.all() {
		switch {
		case strings.Contains(line, "level=DEBUG") && strings.Contains(line, "not cached"):
			declined++
		case strings.Contains(line, "level=WARN") && strings.Contains(line, "request failed"):
			if strings.Contains(line, "status=504") {
				t.Errorf("a declined request warned: %s", line)
			}
			warned++
		}
	}
	if declined != 1 || warned != 1 {
		t.Errorf("%d debug declines and %d warnings, want 1 and 1:\n%s", declined, warned, strings.Join(capture.all(), ""))
	}
}

// TestTraceIDPropagationEndToEnd follows one client-supplied trace ID
// through the whole plane: echoed on the response and in the body,
// present in a structured log line, attached to the exported span
// timeline, and carried by fault events in the debug ring.
func TestTraceIDPropagationEndToEnd(t *testing.T) {
	capture := newLogCapture()
	in := faults.New(7, faults.Rule{Site: faults.SiteServerExec, Kind: faults.KindLatency, Delay: 1, N: 1})
	o := obs.New(MetricsNamespace, 64, 16, slog.New(capture.h))
	s := newTestServer(t, Options{Workers: 1, Faults: in, Obs: o})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "e2e-trace-0042"
	body, _ := json.Marshal(JobSpec{Microbench: 4})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Trace-ID", traceID)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != traceID {
		t.Errorf("response X-Trace-ID = %q, want %q", got, traceID)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.TraceID != traceID {
		t.Errorf("JobResult.TraceID = %q, want %q", res.TraceID, traceID)
	}

	// Structured log line keyed by the trace ID.
	found := false
	for _, line := range capture.all() {
		if strings.Contains(line, "trace_id="+traceID) && strings.Contains(line, "simulation complete") {
			found = true
		}
	}
	if !found {
		t.Errorf("no structured log line carries trace_id=%s:\n%s", traceID, strings.Join(capture.all(), ""))
	}

	// Span export: the stored trace renders to Perfetto JSON including
	// the per-stage spans and the per-SM exec spans.
	tr := o.Traces.Get(traceID)
	if tr == nil {
		t.Fatalf("trace %s not retained (have %v)", traceID, o.Traces.IDs())
	}
	spanNames := map[string]bool{}
	for _, sp := range tr.Spans() {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"admit", "cache", "dedup", "queue", "exec", "sm 0"} {
		if !spanNames[want] {
			t.Errorf("trace missing span %q (have %v)", want, tr.Spans())
		}
	}
	var perf bytes.Buffer
	if err := tr.WritePerfetto(&perf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if !json.Valid(perf.Bytes()) || !strings.Contains(perf.String(), traceID) {
		t.Error("perfetto export invalid or missing the trace ID")
	}

	// The injected fault landed in the ring with the same trace ID.
	evs := o.Ring.Events()
	faultSeen := false
	for _, ev := range evs {
		if ev.Kind == obs.EventFault && ev.TraceID == traceID && ev.Site == faults.SiteServerExec {
			faultSeen = true
		}
	}
	if !faultSeen {
		t.Errorf("ring has no fault event with trace %s: %+v", traceID, evs)
	}

	// And /debug endpoints serve all of it over HTTP.
	for path, want := range map[string]string{
		"/debug/events":            traceID,
		"/debug/traces":            traceID,
		"/debug/traces/" + traceID: `"traceEvents"`,
	} {
		r2, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK || !strings.Contains(string(b), want) {
			t.Errorf("GET %s = %d, body missing %q", path, r2.StatusCode, want)
		}
	}
}

// TestDebugEventsCaptureIncidents: panic quarantines and breaker
// transitions land in the ring.
func TestDebugEventsCaptureIncidents(t *testing.T) {
	in := faults.New(1, faults.Rule{Site: faults.SiteServerExec, Kind: faults.KindPanic, N: 1})
	s := newTestServer(t, Options{Workers: 1, Faults: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, code := postJob(t, ts, JobSpec{Microbench: 4}); code != http.StatusInternalServerError {
		t.Fatalf("panicking job = %d, want 500", code)
	}
	var quarantineSeen, faultSeen bool
	for _, ev := range s.obs.Ring.Events() {
		switch ev.Kind {
		case obs.EventQuarantine:
			quarantineSeen = true
		case obs.EventFault:
			faultSeen = true
		}
	}
	if !faultSeen || !quarantineSeen {
		t.Errorf("ring missing fault/quarantine events: %+v", s.obs.Ring.Events())
	}
}

// TestBreakerTransitionEvents: a dying disk trips the breaker and the
// transition is observable in the ring and as a metric.
func TestBreakerTransitionEvents(t *testing.T) {
	in := faults.New(1, faults.Rule{Site: faults.SiteDiskRead, Kind: faults.KindError})
	disk := simcache.NewDisk(t.TempDir())
	disk.Faults = in
	cache := simcache.NewResilient(disk, simcache.ResilientOptions{
		Retries: -1, TripAfter: 1,
		Sleep: func(d time.Duration) {},
	})
	s := newTestServer(t, Options{Workers: 1, Cache: cache, Faults: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postJob(t, ts, JobSpec{Microbench: 2 + i})
	}
	var breakerSeen bool
	for _, ev := range s.obs.Ring.Events() {
		if ev.Kind == obs.EventBreaker && strings.Contains(ev.Detail, "open") {
			breakerSeen = true
		}
	}
	if !breakerSeen {
		t.Errorf("no breaker transition in ring: %+v", s.obs.Ring.Events())
	}
	text, _ := scrape(t, ts, "text/plain")
	if !strings.Contains(text, "sisimd_degraded 1") {
		t.Errorf("degraded gauge not 1:\n%s", grepLines(text, "degraded"))
	}
	if !strings.Contains(text, "sisimd_breaker_transitions_total") {
		t.Error("breaker transition counter missing")
	}
}

// TestSanitizeTraceID rejects IDs that would damage logs or labels: it
// pins the rule the front applies to X-Trace-ID
// (and, through sanitizeTenant and SubmitSpec.name, to X-Tenant and
// submission names).
func TestSanitizeTraceID(t *testing.T) {
	for in, want := range map[string]string{
		"abc-123":               "abc-123",
		"":                      "",
		"has space":             "",
		"quote\"inside":         "",
		"back\\slash":           "",
		"ctrl\x01":              "",
		strings.Repeat("x", 65): "",
	} {
		if got := obs.SanitizeID(in); got != want {
			t.Errorf("obs.SanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return fmt.Sprintf("%s", strings.Join(out, "\n"))
}
