package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/server"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

// session is one set-up instance of a workload: daemons running,
// caches primed, warm-up done, ready to measure.
type session struct {
	sc      scenario
	env     *env
	gen     generator
	exec    executor
	client  *http.Client
	front   *daemon   // the daemon requests go to: the single node or the coordinator
	workers []*daemon // the simulating nodes: the single node or the cluster workers
	dirs    []string

	// first is the first answer seen for each payload (the priming
	// miss), which every later answer for it must equal.
	first map[string]outcome
}

// setup starts the workload's daemons, primes and warms them. On error
// everything it started is stopped.
func setup(ctx context.Context, e *env, sc scenario, seed int64, smoke bool) (s *session, err error) {
	s = &session{sc: sc, env: e, gen: sc.gen(seed, smoke), first: map[string]outcome{}}
	defer func() {
		if err != nil {
			_, cerr := s.close()
			err = errors.Join(err, cerr)
		}
	}()
	// startNode starts one simulating daemon at addr, or, if that port
	// is taken, at whatever port is free.
	startNode := func(n node, addr string) (*daemon, error) {
		dir, err := e.tempDir()
		if err != nil {
			return nil, err
		}
		s.dirs = append(s.dirs, dir)
		d, err := e.start(ctx, n.flags(addr, dir))
		if err != nil && addr != anyPort {
			fmt.Fprintf(os.Stderr, "benchmark: %s is taken, ring placement will differ: %v\n", addr, err)
			d, err = e.start(ctx, n.flags(anyPort, dir))
		}
		return d, err
	}
	switch sc.topo {
	case topoLibrary:
		s.exec = func(ctx context.Context, r request) (outcome, error) { return runLib(ctx, r, nil, 0) }
	case topoSingle:
		if s.front, err = startNode(sc.node, anyPort); err != nil {
			return s, err
		}
		s.workers = []*daemon{s.front}
	case topoCluster:
		var urls []string
		for i := 0; i < clusterWorkers; i++ {
			w, err := startNode(sc.node, workerAddr(i, false))
			if err != nil {
				return s, err
			}
			s.workers = append(s.workers, w)
			urls = append(urls, w.url)
		}
		s.front, err = e.start(ctx, []string{"-addr", anyPort, "-log-level", "off",
			"-peers", strings.Join(urls, ",")})
		if err != nil {
			return s, err
		}
	}
	if s.front != nil {
		s.client = newHTTPClient(sc.clients)
		s.exec = postExecutor(s.client, s.front.url)
	}
	prime := s.gen.prime()
	outs, err := runAll(ctx, s.exec, prime, sc.clients)
	if err != nil {
		return s, fmt.Errorf("prime: %w", err)
	}
	for i, r := range prime {
		s.first[string(r.payload)] = outs[i]
	}
	if _, err := runAll(ctx, s.exec, s.gen.warm(), sc.clients); err != nil {
		return s, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *session) measure(ctx context.Context, seconds float64) window {
	if s.sc.rate > 0 {
		return runOpen(ctx, s.exec, s.gen, s.sc.clients, s.sc.rate, seconds)
	}
	return runClosed(ctx, s.exec, s.gen, s.sc.clients, seconds)
}

// close stops the session's daemons (requiring a clean drain), removes
// their cache directories and returns the peak resident memory: the
// daemons' summed VmHWM for a serving workload, the harness's own for
// a library one.
func (s *session) close() (rssMB float64, err error) {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.sc.topo == topoLibrary {
		rssMB, err = peakRSSMB(0)
	} else {
		rssMB, err = s.env.stopAll()
	}
	for _, d := range s.dirs {
		err = errors.Join(err, os.RemoveAll(d))
	}
	return rssMB, err
}

// materialize turns a request into what a simulation needs: the
// configuration, a builder of fresh kernels, and the application
// profile when the kernel is a megakernel.
func materialize(r request) (cfg config.Config, build func() (*sm.Kernel, error), app *workload.AppProfile, err error) {
	switch {
	case r.lib != nil:
		return r.lib.cfg, r.lib.build, r.lib.app, nil
	case r.job != nil:
		cfg, err = r.job.Config()
		if err == nil && r.job.App != "" {
			var p workload.AppProfile
			p, err = workload.ProfileByName(r.job.App)
			app = &p
		}
		return cfg, r.job.BuildKernel, app, err
	default:
		cfg, err = r.sub.Config()
		return cfg, func() (*sm.Kernel, error) { return submitKernel(*r.sub) }, nil, err
	}
}

// submitLimits is what admission checks a generated submission
// against: the server substitutes the requested memory budget for the
// footprint limit and leaves the rest at the defaults.
func submitLimits(sp server.SubmitSpec) admission.Limits {
	return admission.Limits{MemFootprintBytes: sp.MemFootprintBytes}
}

// submitKernel rebuilds the kernel Server.SubmitKernel constructs for a
// generated submission. Generated specs state every launch and budget
// field, so no server default is involved.
func submitKernel(sp server.SubmitSpec) (*sm.Kernel, error) {
	prog, err := admission.ValidateSource(sp.Name, sp.Assembly, submitLimits(sp))
	if err != nil {
		return nil, err
	}
	return submitLaunch(sp, prog), nil
}

func submitLaunch(sp server.SubmitSpec, prog *isa.Program) *sm.Kernel {
	return &sm.Kernel{
		Program:     prog,
		NumWarps:    sp.Warps,
		WarpsPerCTA: sp.WarpsPerCTA,
		Memory:      mem.NewMemory(),
		Budget:      &sm.Budget{MaxCycles: sp.MaxCycles, MaxInstrs: sp.MaxInstrs, MaxMemBytes: sp.MemFootprintBytes},
	}
}

// reference simulates a request in-process, outside any server.
func reference(ctx context.Context, r request) (stats.Counters, error) {
	cfg, build, _, err := materialize(r)
	if err != nil {
		return stats.Counters{}, err
	}
	k, err := build()
	if err != nil {
		return stats.Counters{}, err
	}
	res, err := gpu.RunContext(ctx, cfg, k, 1)
	return res.Counters, err
}

func idleBucketsSum(c stats.Counters) bool {
	return c.IdleLoadCycles+c.IdleFetchCycles+c.IdleSwitchCycles+
		c.IdleBarrierCycles+c.IdleNoWarpCycles == c.IdleCycles
}

const checkSample = 16

// check verifies the window's outputs and returns every mismatch found:
//   - the five idle buckets sum to IdleCycles on every answer;
//   - every answer for one operation is bit-identical to the first one
//     seen for it, so a hit equals its miss and a library op repeats;
//   - a seeded sample of served answers equals an in-process simulation
//     of the same spec;
//   - through a coordinator, the sample also equals what a worker
//     answers when asked directly, and no peer breaker has opened.
func (s *session) check(ctx context.Context, w window, seed int64) []string {
	var problems []string
	var ok []sample
	for _, smp := range w.samples {
		if smp.err != nil {
			continue
		}
		ok = append(ok, smp)
		if !idleBucketsSum(smp.out.counters) {
			problems = append(problems, fmt.Sprintf("%s: idle buckets do not sum to IdleCycles", smp.req.label))
		}
		id := smp.req.label
		if smp.req.lib == nil {
			id = string(smp.req.payload)
		}
		first, seen := s.first[id]
		if !seen {
			s.first[id] = smp.out
			continue
		}
		if first.counters != smp.out.counters || first.key != smp.out.key {
			problems = append(problems, fmt.Sprintf("%s: answer differs from the first answer for the same operation", smp.req.label))
		}
	}
	if s.sc.topo == topoLibrary || len(ok) == 0 {
		return problems
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	if len(ok) > checkSample {
		ok = ok[:checkSample]
	}
	for _, smp := range ok {
		want, err := reference(ctx, smp.req)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: reference simulation: %v", smp.req.label, err))
		case want != smp.out.counters:
			problems = append(problems, fmt.Sprintf("%s: served counters differ from an in-process run", smp.req.label))
		}
		if s.sc.topo != topoCluster {
			continue
		}
		direct, err := post(ctx, s.client, s.workers[0].url+smp.req.path(), smp.req.payload)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: direct worker request: %v", smp.req.label, err))
		case direct.Counters != smp.out.counters || direct.Key != smp.out.key:
			problems = append(problems, fmt.Sprintf("%s: coordinator answer differs from the worker's own", smp.req.label))
		}
	}
	if s.sc.topo == topoCluster {
		var cl struct {
			Peers []struct {
				Name  string `json:"name"`
				State string `json:"breaker_state"`
			} `json:"peers"`
		}
		if err := getJSON(s.client, s.front.url+"/cluster", &cl); err != nil {
			problems = append(problems, "GET /cluster: "+err.Error())
		}
		for _, p := range cl.Peers {
			if p.State != "closed" {
				problems = append(problems, fmt.Sprintf("peer %s breaker is %s", p.Name, p.State))
			}
		}
	}
	return problems
}

// observed is what the daemons themselves report, summed over the
// simulating nodes, plus the coordinator's routing counters.
type observed struct {
	hits, misses       float64
	jobsTotal          float64
	rejected, coalesce float64
	queueWaitP50MS     float64 // worst node's
	stageSumS          float64 // Σ sisimd_stage_latency_seconds_sum over stages and nodes
	reroutes           float64
	peerOK             float64
}

func (s *session) observe() (observed, error) {
	var o observed
	for _, w := range s.workers {
		var m server.Metrics
		if err := getJSON(s.client, w.url+"/metrics", &m); err != nil {
			return o, err
		}
		o.hits += float64(m.Cache.Hits)
		o.misses += float64(m.Cache.Misses)
		o.jobsTotal += float64(m.JobsTotal)
		o.rejected += float64(m.Rejected + m.RateLimited)
		o.coalesce += float64(m.Coalesced)
		o.queueWaitP50MS = max(o.queueWaitP50MS, m.QueueWaitP50MS)
		series, err := scrape(s.client, w.url)
		if err != nil {
			return o, err
		}
		for name, v := range series {
			if strings.HasPrefix(name, "sisimd_stage_latency_seconds_sum{") {
				o.stageSumS += v
			}
		}
	}
	if s.sc.topo == topoCluster {
		series, err := scrape(s.client, s.front.url)
		if err != nil {
			return o, err
		}
		for name, v := range series {
			switch {
			case name == "sisimd_cluster_reroutes_total":
				o.reroutes += v
			case strings.HasPrefix(name, "sisimd_peer_requests_total{") && strings.Contains(name, `outcome="ok"`):
				o.peerOK += v
			}
		}
	}
	return o, nil
}

func (a observed) minus(b observed) observed {
	return observed{
		hits: a.hits - b.hits, misses: a.misses - b.misses, jobsTotal: a.jobsTotal - b.jobsTotal,
		rejected: a.rejected - b.rejected, coalesce: a.coalesce - b.coalesce,
		queueWaitP50MS: a.queueWaitP50MS, stageSumS: a.stageSumS - b.stageSumS,
		reroutes: a.reroutes - b.reroutes, peerOK: a.peerOK - b.peerOK,
	}
}

// scrape reads a daemon's Prometheus exposition into series -> value,
// the series written exactly as exposed (name plus label set).
func scrape(client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		series[line[:cut]] = v
	}
	return series, sc.Err()
}
