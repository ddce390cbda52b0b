package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"subwarpsim/internal/admission"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct{ n, pct, beyond int }{
		{0, 50, 0}, {19, 50, 9}, {99, 50, 49}, {100, 90, 10}, {199, 90, 19},
		{200, 95, 10}, {999, 95, 49}, {1000, 99, 10}, {4160, 99, 41},
	} {
		pct, beyond := supportedTail(c.n)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("supportedTail(%d) = p%d with %d beyond, want p%d with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
}

func TestZipfIsSeededAndSkewed(t *testing.T) {
	z := newZipf(96, 1.0)
	if last := z.cdf[len(z.cdf)-1]; last < 0.999999 || last > 1.000001 {
		t.Fatalf("cdf ends at %v, want 1", last)
	}
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.rank(rng.Float64())
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different ranks")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds drew the same ranks")
	}
	count := make([]int, 96)
	for _, r := range a {
		count[r]++
	}
	// Zipf(1) over 96 ranks: rank 0 draws 1/H(96) = 19 %, rank 1 half that.
	if share := float64(count[0]) / 5000; share < 0.16 || share > 0.23 {
		t.Errorf("rank 0 drew %.3f of requests, want about 0.19", share)
	}
	if count[1] >= count[0] || count[95] >= count[1] {
		t.Errorf("popularity is not decreasing: %d, %d, ..., %d", count[0], count[1], count[95])
	}
}

func TestSpecGeneratorIsSeededDistinctAndStratified(t *testing.T) {
	labels := func(reqs []request) []string {
		out := make([]string, len(reqs))
		for i, r := range reqs {
			out[i] = r.label
		}
		return out
	}
	a := newSpecGen(3, jobKinds()).take(200)
	b := newSpecGen(3, jobKinds()).take(200)
	c := newSpecGen(4, jobKinds()).take(200)
	seen := map[string]bool{}
	for i := range a {
		if string(a[i].payload) != string(b[i].payload) {
			t.Fatalf("spec %d differs between two generators of one seed", i)
		}
		if seen[string(a[i].payload)] {
			t.Fatalf("spec %d repeats an earlier one", i)
		}
		seen[string(a[i].payload)] = true
		if err := a[i].job.Validate(); err != nil {
			t.Fatalf("spec %d is invalid: %v", i, err)
		}
		if l := a[i].job.LatencyCycles; l < 300 || l > 900 {
			t.Fatalf("spec %d has latency %d outside [300, 900]", i, l)
		}
	}
	if !reflect.DeepEqual(labels(a), labels(c)) {
		t.Error("the mix of strata depends on the seed")
	}
	same := 0
	for i := range a {
		if string(a[i].payload) == string(c[i].payload) {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("%d of %d specs are the same on two seeds", same, len(a))
	}
}

func TestSubmitGeneratorPassesAdmission(t *testing.T) {
	g := newSubmitGen(5, []int{50, 400})
	seen := map[string]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, r := range g.pass(pass) {
			if seen[r.sub.Assembly] {
				t.Fatalf("%s repeats an earlier kernel", r.label)
			}
			seen[r.sub.Assembly] = true
			if err := r.sub.Validate(); err != nil {
				t.Fatalf("%s: %v", r.label, err)
			}
			prog, err := admission.ValidateSource(r.sub.Name, r.sub.Assembly, submitLimits(*r.sub))
			if err != nil {
				t.Fatalf("%s is refused: %v\n%s", r.label, err, r.sub.Assembly)
			}
			want, err := strconv.Atoi(r.label[strings.LastIndexByte(r.label, '-')+1:])
			if err != nil {
				t.Fatal(err)
			}
			if got := prog.Len(); got > want || got < want-10 {
				t.Errorf("%s has %d instructions, want within 10 below %d", r.label, got, want)
			}
		}
	}
	first := newSubmitGen(5, []int{50, 400}).pass(0)
	again := newSubmitGen(5, []int{50, 400}).pass(0)
	for i := range first {
		if first[i].sub.Assembly != again[i].sub.Assembly {
			t.Fatal("the same seed wrote different kernels")
		}
	}
}

// An open loop charges a stall to every request it delays: latency
// counts from the due time, and lag says how late the send was.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int32
	exec := func(context.Context, request) (outcome, error) {
		if calls.Add(1) == 1 {
			time.Sleep(stall) // the server stalls on the first request only
		}
		return outcome{}, nil
	}
	gen := fixedGen{ops: []request{{label: "x"}}}
	// One connection, 50 requests a second for 0.4 s: twenty requests
	// due every 20 ms, the first of which blocks the only connection.
	w := runOpen(context.Background(), exec, gen, 1, 50, 0.4)
	if len(w.samples) != 20 {
		t.Fatalf("sent %d requests, want 20", len(w.samples))
	}
	for k, s := range w.samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", k, s.err)
		}
		if s.latency() != s.lag()+s.service() {
			t.Errorf("request %d: latency %v is not lag %v + service %v", k, s.latency(), s.lag(), s.service())
		}
	}
	// Request 5 was due at 100 ms but could not go out before 200 ms.
	if s := w.samples[5]; s.lag() < 90*time.Millisecond || s.latency() < 90*time.Millisecond || s.service() > 50*time.Millisecond {
		t.Errorf("request 5: lag %v, latency %v, service %v; want about 100 ms of lag charged to it", s.lag(), s.latency(), s.service())
	}
	// By request 15 (due at 300 ms) the backlog has drained.
	if s := w.samples[15]; s.lag() > 50*time.Millisecond {
		t.Errorf("request 15 still lags %v after the stall ended", s.lag())
	}
	if w.samples[0].latency() < stall {
		t.Errorf("request 0 took %v, want at least the %v stall", w.samples[0].latency(), stall)
	}
}

// A closed loop runs whole passes: it stops at the first pass boundary
// after the clock runs out.
func TestClosedLoopRunsWholePasses(t *testing.T) {
	exec := func(context.Context, request) (outcome, error) {
		time.Sleep(time.Millisecond)
		return outcome{}, nil
	}
	gen := fixedGen{ops: make([]request, 7)}
	w := runClosed(context.Background(), exec, gen, 2, 0.03)
	if len(w.samples) == 0 || len(w.samples)%7 != 0 || w.passes != len(w.samples)/7 {
		t.Errorf("ran %d operations in %d passes, want whole passes of 7", len(w.samples), w.passes)
	}
}

// The end-to-end figures are medians over passes: one slow pass does
// not move them.
func TestPerPassMedianLeavesOutASlowPass(t *testing.T) {
	t0 := time.Unix(0, 0)
	var w window
	at := t0
	for pass := 0; pass < 5; pass++ {
		opMS := 10
		if pass == 2 {
			opMS = 50 // the host was busy with something else
		}
		for i := 0; i < 20; i++ {
			done := at.Add(time.Duration(opMS) * time.Millisecond)
			w.samples = append(w.samples, sample{pass: pass, due: at, sent: at, done: done})
			at = done
		}
	}
	w.passes = 5
	ps := perPass(w)
	if got := median(ps.p50); got != 10 {
		t.Errorf("median per-pass p50 = %v ms, want 10", got)
	}
	if got := median(ps.rate); got != 100 {
		t.Errorf("median per-pass rate = %v /s, want 100", got)
	}
	if got := ps.seconds; got < 1.79 || got > 1.81 {
		t.Errorf("passes lasted %v s, want 1.8", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: together they cover 10..60
		{Name: "c", Start: 70, End: 80, Parent: 0},  // disjoint
		{Name: "a1", Start: 12, End: 20, Parent: 1}, // grandchild: a's business, not the parent's
		{Name: "late", Start: 0, End: 50, Parent: -1},
		{Name: "re-enacted", Start: 60, End: 90, Parent: 5},   // outside its parent's interval
		{Name: "re-enacted2", Start: 90, End: 130, Parent: 5}, // the two cover more than the parent lasted
	}
	want := []int64{40, 22, 30, 10, 8, 0, 30, 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanMetricsDecompose(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{Name: "http.request", Start: 0, End: us(1000), Parent: -1, Op: 0},
		{Name: "server.handler", Start: us(100), End: us(900), Parent: 0, Op: 0},
		{Name: "server.submit", Start: us(1000), End: us(1700), Parent: 1, Op: 0},
		{Name: "workload.build", Start: us(1700), End: us(2300), Parent: 2, Op: 0},
		{Name: "server.encode", Start: us(2300), End: us(2350), Parent: 1, Op: 0},
	}
	m := map[string]float64{}
	spanMetrics(m, spans)
	for name, want := range map[string]float64{
		"server.http_self_us_p50": 200, "server.handler_self_us_p50": 50, "server.submit_self_us_p50": 100,
		"workload.build_ms_p50": 0.6, "server.encode_us_p50": 50, "harness.decomp_residual_share": 0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(cpu string, p50 float64, cycles int64) report {
		r := report{Host: hostInfo{CPU: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1"},
			EndToEnd: map[string]map[string]float64{}, Repeat: map[string]map[string]int64{}}
		for _, sc := range scenarios {
			r.EndToEnd[sc.name] = map[string]float64{"job_ms_p50": p50, "job_ms_p95": 2, "jobs_per_s": 3, "peak_rss_mb": 4, "setup_s": 5}
			r.Repeat[sc.name] = map[string]int64{"pass0_cycles": cycles}
		}
		return r
	}
	bounds := map[string]float64{"job_ms_p50": 0.10, "job_ms_p95": 0.10, "jobs_per_s": 0.10, "peak_rss_mb": 0.10, "setup_s": 0.25}
	if ok, table := compareSets([]report{mk("a", 100, 7), mk("a", 104, 7)}, bounds); !ok {
		t.Errorf("sets 4 %% apart under a 10 %% bound were refused:\n%s", table)
	}
	if ok, _ := compareSets([]report{mk("a", 100, 7), mk("a", 115, 7)}, bounds); ok {
		t.Error("sets 14 % apart passed a 10 % bound")
	}
	if ok, _ := compareSets([]report{mk("a", 100, 7), mk("a", 100, 8)}, bounds); ok {
		t.Error("sets with different exact-repeat counts passed")
	}
	if ok, table := compareSets([]report{mk("a", 100, 7), mk("b", 100, 7)}, bounds); ok || !strings.Contains(table, "different hosts") {
		t.Errorf("sets from two CPU models were compared:\n%s", table)
	}
}

// BENCHMARK.json and the tables in run.go and scenarios.go say the
// same thing, inside the limits the benchmark's contract sets.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	if len(f.Workloads) != len(scenarios) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(scenarios))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != scenarios[i].name || w.Why != scenarios[i].why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, scenarios[i].name, scenarios[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range f.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table:\n%v\n%v", f.PerLayer, perLayer)
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 || len(f.Workloads) > 8 {
		t.Error("too many workloads or metrics")
	}
	for _, m := range append(e2e, f.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range f.PerLayer {
		checkName(m.Name)
	}
}

// TestSmoke is -smoke: every workload, untraced and traced, on tiny
// inputs against real sisimd processes, with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Under the race detector the in-process servers run ten times
		// slower and starve the timing-sensitive tests of other packages
		// that `go test -race ./...` runs beside this one.
		t.Skip("builds and runs sisimd")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.cleanup(); err != nil {
			t.Error(err)
		}
	}()
	for _, sc := range scenarios {
		for _, traced := range []bool{false, true} {
			res, err := runOne(ctx, e, runOpts{workload: sc.name, seed: 1, seconds: 0.2, trace: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", sc.name, traced, err)
			}
			if !res.correct() || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed, problems %v", sc.name, traced, res.Attempted, res.Failed, res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s (trace %v): no %s", sc.name, traced, d.Name)
				}
			}
		}
	}
}
