package server

import (
	"net/http"
	"strings"
	"time"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/faults"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
)

// MetricsNamespace prefixes every Prometheus series the service
// exposes (DESIGN §13 has the naming conventions).
const MetricsNamespace = "sisimd"

// siMetrics holds the pre-registered SI mechanism roll-up instruments:
// the paper's stall-attribution buckets, TST pressure, and subwarp
// state-machine transition counts, aggregated service-wide across
// completed simulations. Per-workload series use the bounded
// WorkloadID label set ("app/<name>" / "micro/<n>").
type siMetrics struct {
	idle    []*obs.Counter // cycles per stats.IdleBuckets entry, in its order
	stalls  *obs.Counter
	wakeups *obs.Counter
	selects *obs.Counter
	yields  *obs.Counter
	selBusy *obs.Counter
	tstOver *obs.Counter
	tstPeak *obs.Gauge
}

// registerMetrics registers the service counters, wires the server's
// gauges and caches into the registry as read-at-scrape callbacks, and
// pre-registers the SI roll-up instruments so every required series
// exists from the first scrape (before any job has run).
func (s *Server) registerMetrics() {
	r := s.obs.Reg
	ns := MetricsNamespace

	r.GaugeFunc(ns+"_up", "Always 1 while the process serves.", func() float64 { return 1 })
	r.GaugeFunc(ns+"_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc(ns+"_workers", "Simulation worker pool size.",
		func() float64 { return float64(s.opts.Workers) })
	r.GaugeFunc(ns+"_queue_depth", "Jobs waiting for a worker.",
		func() float64 { return float64(s.queue.Len()) })
	r.GaugeFunc(ns+"_queue_capacity", "Queue slots before backpressure rejects.",
		func() float64 { return float64(s.queue.Cap()) })
	r.GaugeFunc(ns+"_jobs_in_flight", "Simulations currently on a worker.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.GaugeFunc(ns+"_draining", "1 while the server is draining.",
		func() float64 { return b2f(s.draining.Load()) })

	s.jobsTotal = r.Counter(ns+"_jobs_total", "Accepted submissions (including cache hits and coalesced).")
	s.jobsDone = r.Counter(ns+"_jobs_done_total", "Simulations completed successfully.")
	s.jobsFailed = r.Counter(ns+"_jobs_failed_total", "Simulations that returned an error.")
	s.rejected = r.Counter(ns+"_rejected_total", "Submissions rejected by queue backpressure (429).")
	s.rateLimited = r.Counter(ns+"_rate_limited_total", "Submissions rejected by the per-tenant token bucket (429).")
	s.coalesced = r.Counter(ns+"_coalesced_total", "Submissions deduplicated onto an in-flight twin.")
	s.panics = r.Counter(ns+"_panics_total", "Simulations that panicked (recovered and quarantined).")
	s.quarHits = r.Counter(ns+"_quarantine_hits_total", "Submissions refused because their key is quarantined.")
	r.GaugeFunc(ns+"_quarantined_keys", "Keys currently quarantined.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.quarantine))
		})

	r.CounterFunc(ns+"_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc(ns+"_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.CounterFunc(ns+"_cache_evictions_total", "Result-cache evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.CounterFunc(ns+"_cache_corrupt_evictions_total", "Cache entries rejected by checksum and discarded.",
		func() float64 { return float64(s.cache.Stats().Corrupt) })
	r.CounterFunc(ns+"_cache_disk_errors_total", "Disk cache operations that failed after retries.",
		func() float64 { return float64(s.cache.Stats().DiskErrors) })
	r.CounterFunc(ns+"_cache_retries_total", "Disk cache operations re-attempted after transient errors.",
		func() float64 { return float64(s.cache.Stats().Retries) })
	r.GaugeFunc(ns+"_cache_entries", "Resident result-cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc(ns+"_degraded", "1 while the cache serves memory-only (disk breaker tripped).",
		func() float64 { return b2f(s.degraded()) })
	r.GaugeFunc(ns+"_breaker_state", "Disk circuit breaker state: 0 closed, 1 open, 2 half-open.",
		func() float64 {
			if br, ok := s.cache.(interface{ State() simcache.BreakerState }); ok {
				return float64(br.State())
			}
			return 0
		})

	s.simCycles = r.Counter(ns+"_sim_cycles_total", "Simulated cycles across completed simulations.")
	r.GaugeFunc(ns+"_sim_cycles_per_second", "Simulation throughput (cycles per busy wall second).",
		func() float64 {
			busy := s.simBusyNS.Load()
			if busy <= 0 {
				return 0
			}
			return float64(s.simCycles.Value()) / (float64(busy) / 1e9)
		})

	// Sandbox instruments (ISSUE 9). Both label sets are closed —
	// admission reasons and budget resources are fixed constants — so
	// every series is pre-registered and visible from the first scrape.
	s.admRejects = make(map[string]*obs.Counter)
	for _, reason := range admission.Reasons() {
		s.admRejects[reason] = r.Counter(ns+"_admission_rejects_total",
			"Untrusted submissions rejected by static admission, by structured reason.",
			"reason", reason)
	}
	s.budgetKills = make(map[string]*obs.Counter)
	for _, resource := range []string{sm.ResourceCycles, sm.ResourceInstructions, sm.ResourceMemory} {
		s.budgetKills[resource] = r.Counter(ns+"_budget_kills_total",
			"Simulations terminated by the gas meter, by exhausted resource.",
			"resource", resource)
	}
	// Per-tenant queue depth: the default tenant's series exists from
	// the first scrape; other tenants register on first submission
	// (the set is bounded by maxTenants, so cardinality stays finite).
	registerTenantGauge := func(tenant string) {
		r.GaugeFunc(ns+"_tenant_queue_depth", "Jobs waiting for a worker, per tenant.",
			func() float64 { return float64(s.queue.depthOf(tenant)) }, "tenant", tenant)
	}
	registerTenantGauge(DefaultTenant)
	s.queue.onNewTenant = func(tenant string) {
		if tenant != DefaultTenant {
			registerTenantGauge(tenant)
		}
	}

	// SI mechanism roll-ups. Pre-registered so the full label set is
	// visible before the first simulation completes.
	s.si.idle = make([]*obs.Counter, len(stats.IdleBuckets))
	for i, b := range stats.IdleBuckets {
		s.si.idle[i] = r.Counter(ns+"_si_idle_cycles_total",
			"Idle block-cycles attributed to one stall cause (the paper's stall-attribution buckets).",
			"bucket", b.Label)
	}
	s.si.stalls = r.Counter(ns+"_si_subwarp_stalls_total",
		"Subwarp ACTIVE -> STALLED transitions.")
	s.si.wakeups = r.Counter(ns+"_si_subwarp_wakeups_total",
		"Subwarp STALLED -> READY transitions.")
	s.si.selects = r.Counter(ns+"_si_subwarp_switches_total",
		"Subwarp switches (READY -> ACTIVE selects).")
	s.si.yields = r.Counter(ns+"_si_subwarp_yields_total",
		"Subwarp ACTIVE -> READY yields.")
	s.si.selBusy = r.Counter(ns+"_si_switch_latency_cycles_total",
		"Cycles spent paying the subwarp switch latency.")
	s.si.tstOver = r.Counter(ns+"_si_tst_overflows_total",
		"Stall demotions rejected because the Thread State Table was full.")
	s.si.tstPeak = r.Gauge(ns+"_si_max_live_subwarps",
		"High-water mark of concurrently live subwarps observed in any warp (TST pressure).")
	r.CounterFunc(ns+"_si_sim_cycles_total", "Simulated cycles folded into the SI roll-ups.",
		func() float64 { return float64(s.simCycles.Value()) })
}

// siRollup folds one completed simulation's counters into the
// service-level SI metrics, globally and per workload.
func (s *Server) siRollup(workload string, c stats.Counters) {
	for i, b := range stats.IdleBuckets {
		s.si.idle[i].Add(b.Of(c))
	}
	s.si.stalls.Add(c.SubwarpStalls)
	s.si.wakeups.Add(c.SubwarpWakeups)
	s.si.selects.Add(c.SubwarpSelects)
	s.si.yields.Add(c.SubwarpYields)
	s.si.selBusy.Add(c.SelectBusy)
	s.si.tstOver.Add(c.TSTOverflow)
	s.si.tstPeak.SetMax(float64(c.MaxLiveSubwarps))

	// Per-workload mechanism visibility. WorkloadID is a bounded label
	// set (catalogued apps plus micro/<order>), so series cardinality
	// stays small.
	r := s.obs.Reg
	ns := MetricsNamespace
	r.Counter(ns+"_si_workload_subwarp_switches_total",
		"Subwarp switches per workload.", "workload", workload).Add(c.SubwarpSelects)
	r.Counter(ns+"_si_workload_stall_cycles_total",
		"Idle (stalled) cycles per workload.", "workload", workload).Add(c.IdleCycles)
	r.Counter(ns+"_si_workload_sim_cycles_total",
		"Simulated cycles per workload.", "workload", workload).Add(c.Cycles)
	r.Counter(ns+"_si_workload_jobs_total",
		"Completed simulations per workload.", "workload", workload).Inc()
}

// wireHooks attaches the observability plane to the lower layers'
// callback seams: fault injections, breaker transitions, and corrupt
// evictions all land in the debug-event ring with trace correlation.
func (s *Server) wireHooks() {
	if in := s.opts.Faults; in != nil {
		in.TraceIDFrom = obs.TraceIDFrom
		ring, log := s.obs.Ring, s.obs.Logger()
		in.OnEvent = func(ev faults.Event, traceID string) {
			ring.Add(obs.EventFault, traceID, ev.Site, ev.Kind.String())
			log.Warn("fault injected",
				"trace_id", traceID, "site", ev.Site, "kind", ev.Kind.String(), "hit", ev.Hit)
		}
	}
	if res, ok := s.cache.(*simcache.Resilient); ok {
		ring, log := s.obs.Ring, s.obs.Logger()
		trips := s.obs.Reg.Counter(MetricsNamespace+"_breaker_transitions_total",
			"Disk circuit breaker state transitions.")
		res.OnStateChange = func(from, to simcache.BreakerState) {
			trips.Inc()
			ring.Add(obs.EventBreaker, "", "simcache.breaker", from.String()+" -> "+to.String())
			log.Warn("cache breaker transition", "from", from.String(), "to", to.String())
		}
		if d := res.Disk(); d != nil {
			d.OnCorrupt = func(k simcache.Key, err error) {
				ring.Add(obs.EventCorrupt, "", "simcache.disk.read", k.String()+": "+err.Error())
			}
		}
	}
}

// stageTimer starts one request-path stage measurement; the returned
// closer records the span on the trace and the sample in the stage
// histogram. tr may be nil (untraced Submit callers).
func stageTimer(s *Server, tr *obs.Trace, stage string) func() {
	start := time.Now()
	return func() {
		end := time.Now()
		tr.AddSpan(stage, start, end)
		s.obs.ObserveStage(stage, end.Sub(start).Microseconds())
	}
}

// wantsPrometheus reports whether the Accept header prefers the text
// exposition over JSON.
func wantsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"events": s.obs.Ring.Events()})
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"trace_ids": s.obs.Traces.IDs()})
}

// handleDebugTrace exports one retained trace as Chrome trace_event
// JSON, loadable in ui.perfetto.dev.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.obs.Traces.Get(r.PathValue("id"))
	if tr == nil {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "no such trace"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WritePerfetto(w)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
