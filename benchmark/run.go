package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef fixes a metric's name, unit and direction. BENCHMARK.json
// carries the same table (a test keeps the two equal) plus each
// end-to-end metric's regression bound.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// End-to-end metrics: host time unless said otherwise, measured with
// tracing off, defined and non-zero on every workload.
var endToEnd = []metricDef{
	{"job_ms_p50", "ms", "lower"},
	{"job_ms_p95", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// Per-layer metrics, from the traced run. A metric of a layer the
// workload does not cross reads 0.
var perLayer = []metricDef{
	// What the load generator and the daemons saw while the workload ran
	// as it does untraced (the traced run's first phase).
	{"loadgen.samples", "count", "higher"},
	{"loadgen.tail_pct", "pct", "higher"},
	{"loadgen.sched_lag_ms_p95", "ms", "lower"},
	{"loadgen.achieved_rate_per_s", "1/s", "higher"},
	{"fail_share", "share", "lower"},
	{"sim_mcycles_per_s", "Mcycle/s", "higher"},
	{"sim_kinstr_per_s", "kinstr/s", "higher"},
	{"sim.pass_cycles", "count", "lower"},
	{"sim.pass_instrs", "count", "lower"},
	{"si_speedup_abs_err_pp", "pp", "lower"},
	{"hit_ms_p50", "ms", "lower"},
	{"miss_ms_p50", "ms", "lower"},
	{"simcache.hit_share", "share", "higher"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.coalesced_share", "share", "higher"},
	{"server.rejected_share", "share", "lower"},
	{"server.stage_sum_over_e2e", "ratio", "higher"},
	{"cluster.reroute_share", "share", "lower"},
	// Span medians from the traced replay.
	{"isa.assemble_us_p50", "us", "lower"},
	{"isa.compile_us_p50", "us", "lower"},
	{"admission.validate_us_p50", "us", "lower"},
	{"jobspec.config_us_p50", "us", "lower"},
	{"workload.build_ms_p50", "ms", "lower"},
	{"simcache.keyof_us_p50", "us", "lower"},
	{"simcache.get_us_p50", "us", "lower"},
	{"simcache.put_us_p50", "us", "lower"},
	{"gpu.run_ms_p50", "ms", "lower"},
	{"trace.export_ms_p50", "ms", "lower"},
	{"trace.events_per_run", "count", "lower"},
	{"server.encode_us_p50", "us", "lower"},
	{"server.submit_self_us_p50", "us", "lower"},
	{"server.handler_self_us_p50", "us", "lower"},
	{"server.http_self_us_p50", "us", "lower"},
	{"cluster.hop_self_us_p50", "us", "lower"},
	{"cluster.home_hit_share", "share", "higher"},
	// Each distinct kernel of the workload, timed outside any request.
	{"gpu.run_mcycles_per_s", "Mcycle/s", "higher"},
	{"sm.host_ns_per_instr", "ns", "lower"},
	{"sm.allocs_per_run", "count", "lower"},
	{"sm.stepped_mcycles_per_s", "Mcycle/s", "higher"},
	{"sm.ff_gain_x", "x", "higher"},
	{"trace.record_overhead_x", "x", "lower"},
	{"scene.generate_ms_p50", "ms", "lower"},
	{"rtcore.bvh_build_ms_p50", "ms", "lower"},
	{"rtcore.traverse_ns_per_ray", "ns", "lower"},
	// Fixed micro-probes, the same on every workload.
	{"simcache.mem_get_ns_p50", "ns", "lower"},
	{"simcache.mem_put_ns_p50", "ns", "lower"},
	{"simcache.disk_put_us_p50", "us", "lower"},
	{"simcache.disk_get_us_p50", "us", "lower"},
	{"cluster.ring_lookup_ns_p50", "ns", "lower"},
	// The harness itself.
	{"harness.build_s", "s", "lower"},
	{"harness.trace_overhead_share", "share", "lower"},
	{"harness.decomp_residual_share", "share", "lower"},
}

type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	rate     float64 // > 0: drive the workload as an open loop at this many requests a second
	outDir   string  // samples and spans go here after a run; "" keeps nothing
}

// runResult is one run of one workload.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Problems are failed output checks; any makes the run incorrect.
	Problems []string
	// Repeat holds counts that must repeat exactly for a (workload,
	// seed): simulated cycles and instructions of the first pass.
	Repeat map[string]int64
	// Samples is the successful operations measured, and TailPct the
	// highest percentile that many support.
	Samples int
	TailPct int
}

func (r runResult) correct() bool { return len(r.Problems) == 0 }

func runOne(ctx context.Context, e *env, o runOpts) (runResult, error) {
	sc, ok := scenarioByName(o.workload)
	if !ok {
		return runResult{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.rate > 0 {
		sc.rate = o.rate
	}
	if o.trace {
		return runTraced(ctx, e, sc, o)
	}
	return runUntraced(ctx, e, sc, o)
}

// Set-up is repeated so that setup_s is a median: at least minSetups
// times, and for a workload that sets up in a fraction of a second
// (a library workload's set-up is one warm-up pass) up to maxSetups
// times while they have taken under setupBudget together.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 3 * time.Second
)

// runUntraced sets the workload up several times, measures on the last
// and reports the end-to-end metrics.
func runUntraced(ctx context.Context, e *env, sc scenario, o runOpts) (res runResult, err error) {
	var sess *session
	var setupS []float64
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if sess != nil {
			if _, err := sess.close(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		if sess, err = setup(ctx, e, sc, o.seed, o.smoke); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += time.Since(t0)
		if o.smoke {
			break
		}
	}
	w := sess.measure(ctx, o.seconds)
	res = summarize(w)
	res.Problems = sess.check(ctx, w, o.seed)
	rss, cerr := sess.close()
	if cerr != nil {
		res.Problems = append(res.Problems, "teardown: "+cerr.Error())
	}
	if o.outDir != "" {
		if err := writeSamples(filepath.Join(o.outDir, "samples-"+sc.name+".json"), w); err != nil {
			return res, err
		}
	}
	ps := perPass(w)
	res.Metrics = map[string]float64{
		"job_ms_p50":  median(ps.p50),
		"job_ms_p95":  median(ps.p95),
		"jobs_per_s":  median(ps.rate),
		"peak_rss_mb": rss,
		"setup_s":     median(setupS),
	}
	return res, ctx.Err()
}

// passStats holds one value per measured pass.
type passStats struct {
	p50, p95 []float64 // latency percentiles of the pass's successful operations, ms
	rate     []float64 // successful operations per second of the pass
	seconds  float64   // Σ pass durations
}

// perPass summarises each pass on its own. Every pass of a workload is
// the same mix of operations, so the passes of a run are replicates;
// the end-to-end metrics are the medians over them. The host this
// benchmark runs on is shared, and is slowed for seconds at a time by
// what else runs there: a median over passes leaves out the passes
// that were hit, where a figure over the whole run would average them
// in.
func perPass(w window) passStats {
	type pass struct {
		lat         []float64
		first, last time.Time
	}
	passes := make([]pass, w.passes)
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		p := &passes[s.pass]
		p.lat = append(p.lat, float64(s.latency().Nanoseconds())/1e6)
		if p.first.IsZero() || s.due.Before(p.first) {
			p.first = s.due
		}
		if s.done.After(p.last) {
			p.last = s.done
		}
	}
	var ps passStats
	for _, p := range passes {
		if len(p.lat) == 0 {
			continue
		}
		sort.Float64s(p.lat)
		sec := p.last.Sub(p.first).Seconds()
		ps.p50 = append(ps.p50, quantile(p.lat, 0.50))
		ps.p95 = append(ps.p95, quantile(p.lat, 0.95))
		ps.rate = append(ps.rate, float64(len(p.lat))/sec)
		ps.seconds += sec
	}
	return ps
}

// summarize counts a window's operations and takes the exact-repeat
// counts from its first pass.
func summarize(w window) runResult {
	res := runResult{Attempted: len(w.samples), Repeat: map[string]int64{}}
	for _, s := range w.samples {
		if s.err != nil {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("%s failed: %v", s.req.label, s.err))
			continue
		}
		if s.pass == 0 {
			res.Repeat["pass0_cycles"] += s.out.counters.Cycles
			res.Repeat["pass0_instrs"] += s.out.counters.IssuedInstrs
		}
	}
	res.Samples = res.Attempted - res.Failed
	res.TailPct, _ = supportedTail(res.Samples)
	return res
}

// writeSamples keeps a window's raw operations, for looking at an
// estimator offline.
func writeSamples(path string, w window) error {
	type row struct {
		Label  string  `json:"label"`
		Pass   int     `json:"pass"`
		DueMS  float64 `json:"due_unix_ms"`
		MS     float64 `json:"ms"`
		Cached bool    `json:"cached"`
		Failed bool    `json:"failed,omitempty"`
	}
	rows := make([]row, len(w.samples))
	for i, s := range w.samples {
		rows[i] = row{s.req.label, s.pass, float64(s.due.UnixNano()) / 1e6,
			float64(s.latency().Nanoseconds()) / 1e6, s.out.cached, s.err != nil}
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// latenciesMS returns the ascending latencies, in ms, of the successful
// samples keep accepts.
func latenciesMS(w window, keep func(sample) bool) []float64 {
	var ms []float64
	for _, s := range w.samples {
		if s.err == nil && keep(s) {
			ms = append(ms, float64(s.latency().Nanoseconds())/1e6)
		}
	}
	sort.Float64s(ms)
	return ms
}

// paperBothHalf is the paper's approximate Both,N>=0.5 speedup per
// trace, in percent, as tabulated in EXPERIMENTS.md E3.
var paperBothHalf = map[string]float64{
	"AV1": 4, "AV2": 3, "BFV1": 15, "BFV2": 20, "Coll1": 1,
	"Coll2": 2, "Ctrl": 5, "DDGI": 6, "MC": 3, "MW": 8,
}

// speedupError is the mean absolute difference, in percentage points,
// between the simulated Both,N>=0.5 speedups in the window and the
// paper's; 0 when the window does not hold every trace under both
// policies (any workload but paper-sweep). Simulated time: it repeats
// exactly.
func speedupError(w window) float64 {
	cycles := map[string]int64{}
	for _, s := range w.samples {
		if s.err == nil {
			cycles[s.req.label] = s.out.counters.Cycles
		}
	}
	sum := 0.0
	for app, paper := range paperBothHalf {
		base, both := cycles[app+"/baseline"], cycles[app+"/Both,N>=0.5"]
		if base == 0 || both == 0 {
			return 0
		}
		sum += math.Abs((float64(base)/float64(both)-1)*100 - paper)
	}
	return sum / float64(len(paperBothHalf))
}

// runTraced produces the per-layer metrics in three phases: the
// workload as it runs untraced, with the daemons' own counters read
// before and after; the in-process replay with a span around every
// layer call; and each distinct kernel and the fixed micro-layers
// timed on their own.
func runTraced(ctx context.Context, e *env, sc scenario, o runOpts) (res runResult, err error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	// Phase 1: observed.
	sess, err := setup(ctx, e, sc, o.seed, o.smoke)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	var before, after observed
	if sc.topo != topoLibrary {
		if before, err = sess.observe(); err != nil {
			_, cerr := sess.close()
			return res, errors.Join(err, cerr)
		}
	}
	w := sess.measure(ctx, o.seconds*0.4)
	if sc.topo != topoLibrary {
		if after, err = sess.observe(); err != nil {
			_, cerr := sess.close()
			return res, errors.Join(err, cerr)
		}
	}
	res = summarize(w)
	res.Problems = append(res.Problems, sess.check(ctx, w, o.seed)...)
	if _, cerr := sess.close(); cerr != nil {
		res.Problems = append(res.Problems, "teardown: "+cerr.Error())
	}
	observedMetrics(m, sc, w, res, after.minus(before))

	// Phase 2: traced replay.
	rec := newRecorder()
	rp, err := replay(ctx, e, sc, o.seed, o.smoke, o.seconds*0.4, rec)
	if err != nil {
		return res, fmt.Errorf("traced replay: %w", err)
	}
	if sc.topo == topoLibrary {
		for _, s := range w.samples {
			if s.err == nil {
				rp.off[s.req.label] = append(rp.off[s.req.label], float64(s.service().Nanoseconds())/1e6)
			}
		}
	}
	res.Attempted += rp.attempted
	res.Failed += rp.failed
	res.Problems = append(res.Problems, rp.problems...)
	spans := rec.snapshot()
	spanMetrics(m, spans)
	m["cluster.home_hit_share"] = rp.homeShare
	m["trace.events_per_run"] = median(rp.events)
	m["harness.trace_overhead_share"] = rp.overhead()
	if o.outDir != "" {
		if err := rec.writeFile(filepath.Join(o.outDir, "spans-"+sc.name+".json")); err != nil {
			return res, err
		}
	}

	// Phase 3: probes.
	probes, problems := probeKernels(ctx, rp.kernels)
	res.Problems = append(res.Problems, problems...)
	probeMetrics(m, probes)
	fp, err := probeFixed(e, o.seed)
	if err != nil {
		return res, fmt.Errorf("fixed probes: %w", err)
	}
	m["simcache.mem_get_ns_p50"] = fp.memGetNS
	m["simcache.mem_put_ns_p50"] = fp.memPutNS
	m["simcache.disk_put_us_p50"] = fp.diskPutUS
	m["simcache.disk_get_us_p50"] = fp.diskGetUS
	m["cluster.ring_lookup_ns_p50"] = fp.ringLookupNS
	m["harness.build_s"] = e.buildS
	res.Metrics = m
	return res, ctx.Err()
}

// observedMetrics fills in what the first phase measured from outside.
func observedMetrics(m map[string]float64, sc scenario, w window, res runResult, d observed) {
	m["loadgen.samples"] = float64(res.Samples)
	m["loadgen.tail_pct"] = float64(res.TailPct)
	if res.Attempted > 0 {
		m["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	}
	ps := perPass(w)
	m["loadgen.achieved_rate_per_s"] = median(ps.rate)
	var lags []float64
	var cycles, instrs int64
	serviceS := 0.0
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		lags = append(lags, float64(s.lag().Nanoseconds())/1e6)
		serviceS += s.service().Seconds()
		if !s.out.cached {
			cycles += s.out.counters.Cycles
			instrs += s.out.counters.IssuedInstrs
		}
	}
	sort.Float64s(lags)
	m["loadgen.sched_lag_ms_p95"] = quantile(lags, 0.95)
	if ps.seconds > 0 {
		m["sim_mcycles_per_s"] = float64(cycles) / ps.seconds / 1e6
		m["sim_kinstr_per_s"] = float64(instrs) / ps.seconds / 1e3
	}
	m["sim.pass_cycles"] = float64(res.Repeat["pass0_cycles"])
	m["sim.pass_instrs"] = float64(res.Repeat["pass0_instrs"])
	m["si_speedup_abs_err_pp"] = speedupError(w)
	if sc.topo == topoLibrary {
		return
	}
	m["hit_ms_p50"] = quantile(latenciesMS(w, func(s sample) bool { return s.out.cached }), 0.5)
	m["miss_ms_p50"] = quantile(latenciesMS(w, func(s sample) bool { return !s.out.cached }), 0.5)
	if d.hits+d.misses > 0 {
		m["simcache.hit_share"] = d.hits / (d.hits + d.misses)
	}
	m["server.queue_wait_ms_p50"] = d.queueWaitP50MS
	if d.jobsTotal > 0 {
		m["server.coalesced_share"] = d.coalesce / d.jobsTotal
		m["server.rejected_share"] = d.rejected / (d.jobsTotal + d.rejected)
	}
	if serviceS > 0 {
		m["server.stage_sum_over_e2e"] = d.stageSumS / serviceS
	}
	if d.peerOK > 0 {
		m["cluster.reroute_share"] = d.reroutes / (d.peerOK + d.reroutes)
	}
}

// spanMetrics turns the replay's spans into per-layer medians: a plain
// layer's span durations, and for the layers that contain others their
// self times. It also reports how far each operation's self times are
// from summing to its measured time.
func spanMetrics(m map[string]float64, spans []span) {
	self := selfTimes(spans)
	dur := map[string][]float64{}
	selfOf := map[string][]float64{}
	rootDur := map[int]float64{}
	selfSum := map[int]float64{}
	depth := map[int]int{} // spans of an op below its root
	for i, s := range spans {
		d := float64(s.End - s.Start)
		dur[s.Name] = append(dur[s.Name], d)
		selfOf[s.Name] = append(selfOf[s.Name], float64(self[i]))
		selfSum[s.Op] += float64(self[i])
		if s.Parent < 0 {
			rootDur[s.Op] = d
		} else {
			depth[s.Op]++
		}
	}
	p50 := func(xs []float64, div float64) float64 { return median(xs) / div }
	for name, metric := range map[string]string{
		"isa.assemble": "isa.assemble_us_p50", "isa.compile": "isa.compile_us_p50",
		"admission.validate": "admission.validate_us_p50", "jobspec.config": "jobspec.config_us_p50",
		"simcache.keyof": "simcache.keyof_us_p50", "simcache.get": "simcache.get_us_p50",
		"simcache.put": "simcache.put_us_p50", "server.encode": "server.encode_us_p50",
	} {
		m[metric] = p50(dur[name], 1e3)
	}
	for name, metric := range map[string]string{
		"workload.build": "workload.build_ms_p50", "gpu.run": "gpu.run_ms_p50",
		"trace.export": "trace.export_ms_p50",
	} {
		m[metric] = p50(dur[name], 1e6)
	}
	for name, metric := range map[string]string{
		"server.submit": "server.submit_self_us_p50", "server.handler": "server.handler_self_us_p50",
		"http.request": "server.http_self_us_p50", "cluster.request": "cluster.hop_self_us_p50",
	} {
		m[metric] = p50(selfOf[name], 1e3)
	}
	// Only operations that were decomposed count: a cluster miss has a
	// root span and nothing under it.
	var residual []float64
	for op, d := range rootDur {
		if d > 0 && depth[op] > 0 {
			residual = append(residual, math.Abs(selfSum[op]-d)/d)
		}
	}
	m["harness.decomp_residual_share"] = median(residual)
}

// probeMetrics aggregates the kernel probes, each distinct kernel
// weighing the same.
func probeMetrics(m map[string]float64, probes []kernelProbe) {
	var cycles, instrs, compiledNS, steppedNS float64
	var recordedNS, recordedBaseNS float64
	var allocs, sceneMS, bvhMS []float64
	var rays, traverseNS float64
	for _, p := range probes {
		cycles += float64(p.cycles)
		instrs += float64(p.instrs)
		compiledNS += p.compiledNS
		steppedNS += p.steppedNS
		allocs = append(allocs, p.allocs)
		if p.recordedNS > 0 {
			recordedNS += p.recordedNS
			recordedBaseNS += p.steppedNS
		}
		if p.rays > 0 {
			sceneMS = append(sceneMS, p.sceneMS)
			bvhMS = append(bvhMS, p.bvhMS)
			rays += float64(p.rays)
			traverseNS += p.traverseNS
		}
	}
	if compiledNS > 0 {
		m["gpu.run_mcycles_per_s"] = cycles / compiledNS * 1e3
		m["sm.ff_gain_x"] = steppedNS / compiledNS
	}
	if steppedNS > 0 {
		m["sm.stepped_mcycles_per_s"] = cycles / steppedNS * 1e3
	}
	if instrs > 0 {
		m["sm.host_ns_per_instr"] = compiledNS / instrs
	}
	m["sm.allocs_per_run"] = median(allocs)
	if recordedBaseNS > 0 {
		m["trace.record_overhead_x"] = recordedNS / recordedBaseNS
	}
	m["scene.generate_ms_p50"] = median(sceneMS)
	m["rtcore.bvh_build_ms_p50"] = median(bvhMS)
	if rays > 0 {
		m["rtcore.traverse_ns_per_ray"] = traverseNS / rays
	}
}
