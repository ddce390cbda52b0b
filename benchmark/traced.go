package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/cluster"
	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
)

// The traced pass replays a workload in this process, one operation at
// a time, through the public entry point of every layer, with a span
// around each call. The layers' insides are private, so what lies below
// a real request is timed by re-enactment: the same call made again
// right after the request returned.
//
//	http.request ⊃ server.handler ⊃ {server.submit ⊃ {jobspec.config,
//	    workload.build | isa.assemble + isa.compile + admission.validate,
//	    simcache.keyof, simcache.get}, gpu.run, simcache.put, server.encode}
//	cluster.request ⊃ http.request (the same resident key asked of its
//	    worker directly) ⊃ server.handler ⊃ ...
//	op ⊃ {workload.build, gpu.run, trace.export}            (library)
//
// server.submit is Submit/SubmitKernel called directly once the key is
// resident: the synchronous front end and tail of a submission, which a
// hit and a miss both pay. What only a miss pays beyond the simulation
// itself — coalescing, the queue hand-off, waking the waiter — stays in
// server.handler's self time. Timing the miss path whole would mean
// simulating twice and subtracting two 40 ms runs that differ by
// milliseconds to find tens of microseconds.

// inproc is one in-process sisimd: a server.Server behind a loopback
// listener.
type inproc struct {
	srv  *server.Server
	http *http.Server
	name string // host:port, the ring node name
	url  string
	done chan error // Serve's result
}

// startInproc serves handler(name, server) on addr (or any free port
// if addr is taken), the server built with the node's options over
// cache.
func startInproc(n node, addr string, cache simcache.Cache,
	handler func(name string, s *server.Server) (http.Handler, error)) (*inproc, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil && addr != anyPort {
		ln, err = net.Listen("tcp", anyPort)
	}
	if err != nil {
		return nil, err
	}
	p := &inproc{name: ln.Addr().String(), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	p.srv = server.New(n.options(cache))
	h, err := handler(p.name, p.srv)
	if err != nil {
		ln.Close()
		return nil, errors.Join(err, p.srv.Drain(context.Background()))
	}
	p.http = &http.Server{Handler: h}
	go func() { p.done <- p.http.Serve(ln) }()
	return p, nil
}

func (p *inproc) stop(ctx context.Context) error {
	err := p.http.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, p.srv.Drain(ctx))
}

// tracer carries the traced pass's state. Operations run one at a
// time, so "the operation in flight" is a single slot the loopback
// handlers read.
type tracer struct {
	mu       sync.Mutex
	rec      *recorder // nil during a spans-off pass
	op       int
	parent   int    // parent for the next server.handler span; noSpan to only note who served
	handler  int    // last server.handler span
	servedBy string // node that ran the last handler
}

const noSpan = -2

func (t *tracer) expect(rec *recorder, op, parent int) {
	t.mu.Lock()
	t.rec, t.op, t.parent, t.handler, t.servedBy = rec, op, parent, -1, ""
	t.mu.Unlock()
}

// wrap records a server.handler span around every POST a node serves.
func (t *tracer) wrap(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		rec, op, parent := t.rec, t.op, t.parent
		t.mu.Unlock()
		id := -1
		if parent != noSpan {
			id = rec.begin("server.handler", parent, op)
		}
		next.ServeHTTP(w, r)
		rec.end(id)
		t.mu.Lock()
		t.handler, t.servedBy = id, name
		t.mu.Unlock()
	})
}

func (t *tracer) served() (handler int, by string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handler, t.servedBy
}

// reenact times the calls Server.Submit / SubmitKernel make, in their
// order: the front end as children of submit, and, when the real
// request simulated, the run and the cache put as children of handler.
func reenact(ctx context.Context, rec *recorder, handler, submit, op int, r request, cache simcache.Cache,
	simWorkers int, simulate bool) error {
	var (
		cfg    config.Config
		kernel *sm.Kernel
		wid    string
		err    error
	)
	parent := submit
	step := func(name string, f func()) {
		if err == nil {
			rec.time(name, parent, op, f)
		}
	}
	if r.job != nil {
		wid = r.job.WorkloadID()
		step("jobspec.config", func() { cfg, err = r.job.Config() })
		step("workload.build", func() { kernel, err = r.job.BuildKernel() })
	} else {
		sp := *r.sub
		wid = "submit"
		var prog *isa.Program
		step("jobspec.config", func() { cfg, err = sp.Config() })
		step("isa.assemble", func() { prog, err = isa.Assemble(sp.Name, sp.Assembly) })
		// admission's CFG pass lowers the program; lowered first and
		// apart, the two costs read separately and sum to the same.
		step("isa.compile", func() { prog.Compiled() })
		step("admission.validate", func() { err = admission.Validate(prog, submitLimits(sp)) })
		if err == nil {
			kernel = submitLaunch(sp, prog)
		}
	}
	var key simcache.Key
	step("simcache.keyof", func() { key = simcache.KeyOf(cfg, kernel, wid) })
	step("simcache.get", func() { cache.Get(key) })
	if simulate {
		parent = handler
		var res gpu.Result
		step("gpu.run", func() { res, err = gpu.RunContext(ctx, cfg, kernel, simWorkers) })
		step("simcache.put", func() {
			cache.Put(key, simcache.Entry{Policy: res.Config.PolicyName(), Blocks: res.Blocks, Counters: res.Counters})
		})
	}
	return err
}

// encode times writing a JobResult the way the server's writeJSON does.
func encode(rec *recorder, parent, op int, res server.JobResult) {
	rec.time("server.encode", parent, op, func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	})
}

// universe is the set of in-process servers a traced serving workload
// replays against.
type universe struct {
	sc     scenario
	t      *tracer
	client *http.Client
	// s takes the real loopback request and the direct Submit call; c
	// takes the re-enacted cache get and put. For a resident workload c
	// is s's own cache, where the get hits as the request's did.
	// Otherwise it is a second cache of the same kind, where the get
	// misses and the put writes as the request's did.
	s       *inproc
	c       simcache.Cache
	workers []*inproc // cluster only
	ring    *cluster.Ring
	byName  map[string]*inproc

	routed, home int // cluster: requests routed, and those their ring home served
}

func newUniverse(e *env, sc scenario) (u *universe, err error) {
	u = &universe{sc: sc, t: &tracer{}, client: newHTTPClient(2), byName: map[string]*inproc{}}
	defer func() {
		if err != nil {
			err = errors.Join(err, u.stop())
		}
	}()
	newCache := func() (simcache.Cache, error) {
		dir, err := e.tempDir()
		return sc.node.newCache(dir), err
	}
	traced := func(name string, s *server.Server) (http.Handler, error) {
		return u.t.wrap(name, s.Handler()), nil
	}
	cache, err := newCache()
	if err != nil {
		return u, err
	}
	if sc.topo != topoCluster {
		if u.s, err = startInproc(sc.node, anyPort, cache, traced); err != nil {
			return u, err
		}
		if u.c = cache; !sc.resident {
			u.c, err = newCache()
		}
		return u, err
	}
	u.c = cache
	var urls, names []string
	for i := 0; i < clusterWorkers; i++ {
		if cache, err = newCache(); err != nil {
			return u, err
		}
		w, err := startInproc(sc.node, workerAddr(i, true), cache, traced)
		if err != nil {
			return u, err
		}
		u.workers = append(u.workers, w)
		u.byName[w.name] = w
		urls, names = append(urls, w.url), append(names, w.name)
	}
	u.ring = cluster.NewRing(names, 64) // sisimd's -ring-vnodes default
	// The coordinator, as cmd/sisimd builds it: default local server,
	// breaker flags at their defaults.
	u.s, err = startInproc(node{cache: 4096}, anyPort, simcache.NewMemory(4096),
		func(_ string, s *server.Server) (http.Handler, error) {
			co, err := cluster.New(cluster.Options{Peers: urls, Local: s, TripAfter: 5, Cooldown: 5 * time.Second})
			if err != nil {
				return nil, err
			}
			return co.Handler(), nil
		})
	return u, err
}

func (u *universe) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	u.client.CloseIdleConnections()
	var err error
	if u.s != nil {
		err = u.s.stop(ctx)
	}
	for _, w := range u.workers {
		err = errors.Join(err, w.stop(ctx))
	}
	return err
}

// do performs one traced serving operation and returns how long the
// real request took. With rec nil it is the request alone.
func (u *universe) do(ctx context.Context, rec *recorder, op int, r request) (time.Duration, outcome, error) {
	routed := u.sc.topo == topoCluster
	rootName := "http.request"
	if routed {
		rootName = "cluster.request"
	}
	root := rec.begin(rootName, -1, op)
	handlerParent := root
	if routed {
		// The routed request's worker-side handler is not a span: the
		// worker is asked again directly below, and that is the child.
		handlerParent = noSpan
	}
	u.t.expect(rec, op, handlerParent)
	t0 := time.Now()
	res, err := post(ctx, u.client, u.s.url+r.path(), r.payload)
	dur := time.Since(t0)
	rec.end(root)
	if err != nil {
		return dur, outcome{}, err
	}
	out := outcome{key: res.Key, counters: res.Counters, cached: res.Cached}
	handler, by := u.t.served()
	if routed {
		return dur, out, u.belowCoordinator(ctx, rec, op, root, by, r, res)
	}
	if rec == nil {
		return dur, out, nil
	}
	return dur, out, u.belowHandler(ctx, rec, op, handler, r, res)
}

// belowHandler re-enacts what a single node did under its handler.
func (u *universe) belowHandler(ctx context.Context, rec *recorder, op, handler int, r request, res server.JobResult) error {
	sub := rec.begin("server.submit", handler, op)
	var again server.JobResult
	var err error
	if r.job != nil {
		again, err = u.s.srv.Submit(ctx, *r.job)
	} else {
		again, err = u.s.srv.SubmitKernel(ctx, *r.sub)
	}
	rec.end(sub)
	switch {
	case err != nil:
		return fmt.Errorf("direct submit: %w", err)
	case !again.Cached || again.Counters != res.Counters:
		return fmt.Errorf("direct submit: not a hit equal to the request's answer")
	}
	if err := reenact(ctx, rec, handler, sub, op, r, u.c, u.sc.node.simWorkers, !res.Cached); err != nil {
		return err
	}
	encode(rec, handler, op, res)
	return nil
}

// belowCoordinator notes whether the key's ring home served the routed
// request and, for a hit, asks the serving worker for the same resident
// key directly: cluster.request minus that is the coordinator hop.
func (u *universe) belowCoordinator(ctx context.Context, rec *recorder, op, root int, by string, r request, res server.JobResult) error {
	key, err := simcache.ParseKey(res.Key)
	if err != nil {
		return err
	}
	u.routed++
	if by == u.ring.Preference(key.RouteHash())[0] {
		u.home++
	}
	if rec == nil || !res.Cached {
		return nil
	}
	direct := rec.begin("http.request", root, op)
	u.t.expect(rec, op, direct)
	_, err = post(ctx, u.client, u.byName[by].url+r.path(), r.payload)
	rec.end(direct)
	if err != nil {
		return err
	}
	handler, _ := u.t.served()
	u.c.Put(key, simcache.Entry{Policy: res.Policy, Blocks: res.Blocks, Counters: res.Counters})
	if err := reenact(ctx, rec, handler, handler, op, r, u.c, u.sc.node.simWorkers, false); err != nil {
		return err
	}
	encode(rec, handler, op, res)
	return nil
}

// replayed is what the traced replay measured.
type replayed struct {
	on, off   map[string][]float64 // operation time in ms by stratum, spans on and spans off
	attempted int
	failed    int
	kernels   []request // first request of each distinct kernel, for the probes
	events    []float64 // cycle-trace events per recording op
	homeShare float64
	problems  []string
}

// replay runs the traced pass for about seconds: whole passes, one
// operation at a time. Comparing operations with spans on and with
// spans off, stratum by stratum, is the tracing overhead. A serving
// workload runs every other operation with spans off; a library
// workload's observed phase already ran the same calls in this process
// with spans off (the caller adds those), so its replay has them on
// throughout.
func replay(ctx context.Context, e *env, sc scenario, seed int64, smoke bool, seconds float64, rec *recorder) (rp replayed, err error) {
	rp.on, rp.off = map[string][]float64{}, map[string][]float64{}
	probed := map[string]bool{}
	gen := sc.gen(seed, smoke)
	var do func(ctx context.Context, rec *recorder, op int, r request) (time.Duration, outcome, error)
	var u *universe
	if sc.topo == topoLibrary {
		do = func(ctx context.Context, rec *recorder, op int, r request) (time.Duration, outcome, error) {
			t0 := time.Now()
			out, err := runLib(ctx, r, rec, op)
			return time.Since(t0), out, err
		}
	} else {
		if u, err = newUniverse(e, sc); err != nil {
			return rp, err
		}
		defer func() { err = errors.Join(err, u.stop()) }()
		do = u.do
	}
	for _, r := range append(gen.prime(), gen.warm()...) {
		if _, _, err := do(ctx, nil, -1, r); err != nil {
			return rp, fmt.Errorf("traced set-up: %s: %w", r.label, err)
		}
	}
	if u != nil {
		u.routed, u.home = 0, 0
	}
	first := map[string]outcome{}
	start := time.Now()
	op := 0
	for p := 0; p == 0 || (time.Since(start).Seconds() < seconds && ctx.Err() == nil); p++ {
		for _, r := range gen.pass(p) {
			if !probed[r.kernelID()] {
				probed[r.kernelID()] = true
				rp.kernels = append(rp.kernels, r)
			}
			passRec := rec
			if u != nil && op%2 == 1 {
				passRec = nil
			}
			dur, out, err := do(ctx, passRec, op, r)
			op++
			rp.attempted++
			if err != nil {
				rp.failed++
				rp.problems = append(rp.problems, fmt.Sprintf("traced %s: %v", r.label, err))
				continue
			}
			ms := float64(dur.Nanoseconds()) / 1e6
			if passRec != nil {
				rp.on[r.label] = append(rp.on[r.label], ms)
			} else {
				rp.off[r.label] = append(rp.off[r.label], ms)
			}
			if out.events > 0 {
				rp.events = append(rp.events, float64(out.events))
			}
			id := r.label + string(r.payload)
			if f, ok := first[id]; !ok {
				first[id] = out
			} else if f.counters != out.counters {
				rp.problems = append(rp.problems, fmt.Sprintf("traced %s: answer differs between repeats", r.label))
			}
		}
	}
	if u != nil && u.routed > 0 {
		rp.homeShare = float64(u.home) / float64(u.routed)
	}
	return rp, nil
}

// overhead is how much longer operations took with spans on: the sum
// over strata of the shortest time seen with spans on, over the same
// sum with spans off, minus one (never below zero). The shortest, not
// the median: a stratum is seen a handful of times each way, and what
// else runs on the host only ever adds time. Strata seen only one way
// are left out.
func (rp replayed) overhead() float64 {
	var on, off float64
	for label, xs := range rp.on {
		if ys := rp.off[label]; len(ys) > 0 {
			on += slices.Min(xs)
			off += slices.Min(ys)
		}
	}
	if off == 0 || on < off {
		return 0
	}
	return on/off - 1
}
