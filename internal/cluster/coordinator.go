package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
)

// Options tunes a Coordinator. Local and Peers are required for a
// useful cluster; everything else has serving defaults.
type Options struct {
	// Self is the coordinator's advertised name (shown in /cluster and
	// logs); "" means "coordinator".
	Self string
	// Peers are the worker daemons' base URLs (http://host:port).
	Peers []string
	// Local is the in-process server: the last rung of the routing
	// ladder when every peer is down, the source of the canonical error
	// for specs that do not hash, and the owner of everything the HTTP
	// front needs that is not routing (tenancy, the batch limit, and the
	// /metrics, /healthz, /debug/*, /v1/apps endpoints).
	Local *server.Server
	// Obs is the observability plane. Share the Local server's Observer
	// so /metrics and /debug/traces unify coordinator and local series;
	// nil creates a standalone one.
	Obs *obs.Observer

	// VNodes is the virtual-node count per peer (0 means 64).
	VNodes int
	// LoadFactor is the bounded-load limit: a peer is skipped as a
	// key's first choice while its in-flight count exceeds
	// ceil(LoadFactor * (total+1) / alive). 0 means 1.25.
	LoadFactor float64
	// Window is the per-peer in-flight window for batch scatter-gather
	// (concurrent shards per peer). 0 means 4.
	Window int
	// HedgeAfter, when positive, fires a duplicate of a routed request
	// to the next ring node if the first answers no sooner. Safe because
	// results are bit-identical; the first usable answer wins.
	HedgeAfter time.Duration
	// TripAfter and Cooldown tune each peer's circuit breaker
	// (simcache.Breaker defaults apply when 0).
	TripAfter int
	Cooldown  time.Duration
}

func (o Options) withDefaults() Options {
	if o.Self == "" {
		o.Self = "coordinator"
	}
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.LoadFactor < 1 {
		o.LoadFactor = 1.25
	}
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.Obs == nil {
		o.Obs = obs.New(server.MetricsNamespace, 256, 64, nil)
	}
	return o
}

// Coordinator routes jobs across the peer ring. Create with New and
// serve Handler().
type Coordinator struct {
	opts  Options
	ring  *Ring
	peers map[string]*peer
	obs   *obs.Observer

	// keyMemo caches JobSpec -> ring hash: computing a content key
	// builds the kernel, far too expensive per request. JobSpec is
	// comparable, so specs index directly; the map is reset wholesale at
	// the bound (sweep working sets are far smaller).
	keyMu   sync.Mutex
	keyMemo map[server.JobSpec]uint64

	hedges    *obs.Counter
	steals    *obs.Counter
	reroutes  *obs.Counter
	fallbacks *obs.Counter
	batches   *obs.Counter
}

const keyMemoMax = 4096

// The ring is built from the same seam the node implements: one hop
// and the whole ladder are both "run this request".
var (
	_ server.Runner = (*peer)(nil)
	_ server.Runner = (*Coordinator)(nil)
)

// New builds a Coordinator over opts.Peers. opts.Local must be set.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.Local == nil {
		return nil, fmt.Errorf("cluster: Options.Local is required")
	}
	c := &Coordinator{
		opts:    opts,
		peers:   make(map[string]*peer, len(opts.Peers)),
		obs:     opts.Obs,
		keyMemo: make(map[server.JobSpec]uint64),
	}
	// One client for every peer hop; its timeout is the backstop behind
	// the request contexts.
	client := &http.Client{Timeout: 2 * time.Minute}
	names := make([]string, 0, len(opts.Peers))
	for _, raw := range opts.Peers {
		name := peerName(raw)
		if _, dup := c.peers[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", name)
		}
		p := &peer{
			name:   name,
			url:    strings.TrimRight(raw, "/"), // so url+path is well-formed
			client: client,
			br:     &simcache.Breaker{TripAfter: opts.TripAfter, Cooldown: opts.Cooldown},
			reqs:   make(map[string]*obs.Counter, len(outcomes)),
		}
		c.wirePeer(p)
		c.peers[name] = p
		names = append(names, name)
	}
	c.ring = NewRing(names, opts.VNodes)
	c.registerMetrics()
	return c, nil
}

// wirePeer hooks one peer's breaker transitions into the debug-event
// ring and log — the same treatment the disk-cache breaker gets.
func (c *Coordinator) wirePeer(p *peer) {
	ring, log := c.obs.Ring, c.obs.Logger()
	name := p.name
	p.br.OnStateChange = func(from, to simcache.BreakerState) {
		ring.Add(obs.EventBreaker, "", "cluster.peer."+name, from.String()+" -> "+to.String())
		log.Warn("peer breaker transition", "peer", name, "from", from.String(), "to", to.String())
	}
}

// registerMetrics pre-registers every per-peer series (the peer and
// outcome sets are closed) plus the cluster-wide counters.
func (c *Coordinator) registerMetrics() {
	r := c.obs.Reg
	ns := server.MetricsNamespace
	for name, p := range c.peers {
		for _, oc := range outcomes {
			p.reqs[oc] = r.CounterWith(ns+"_peer_requests_total",
				"Coordinator-to-peer requests by peer and outcome.",
				"peer", name, "outcome", oc)
		}
		pp, nm := p, name
		r.GaugeFuncWith(ns+"_peer_inflight",
			"Requests currently in flight to each peer.",
			func() float64 { return float64(pp.inflight.Load()) }, "peer", nm)
		r.GaugeFuncWith(ns+"_peer_breaker_state",
			"Peer circuit breaker state: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(pp.br.State()) }, "peer", nm)
		r.GaugeFuncWith(ns+"_ring_ownership",
			"Fraction of the key hash space owned by each peer.",
			func() float64 { return c.ring.OwnedFraction(nm) }, "peer", nm)
	}
	c.hedges = r.Counter(ns+"_cluster_hedges_total",
		"Duplicate requests fired to a second peer after HedgeAfter.")
	c.steals = r.Counter(ns+"_cluster_steals_total",
		"Batch shards migrated from a lagging peer's queue to an idle peer.")
	c.reroutes = r.Counter(ns+"_cluster_reroutes_total",
		"Requests moved to the next ring node after a peer failure.")
	c.fallbacks = r.Counter(ns+"_cluster_local_fallback_total",
		"Requests served by the local node because every peer was unavailable.")
	c.batches = r.Counter(ns+"_cluster_batch_jobs_total",
		"Batch shards scattered across the cluster.")
}

// jobHash returns the ring position of a job spec — the first 8 bytes
// of its simcache content key — memoized per spec. ok=false means the
// spec does not produce a key (it is invalid); the caller routes it to
// the local server for the canonical structured error.
func (c *Coordinator) jobHash(spec server.JobSpec) (uint64, bool) {
	c.keyMu.Lock()
	h, ok := c.keyMemo[spec]
	c.keyMu.Unlock()
	if ok {
		return h, true
	}
	key, err := spec.CacheKey()
	if err != nil {
		return 0, false
	}
	h = key.RouteHash()
	c.keyMu.Lock()
	if len(c.keyMemo) >= keyMemoMax {
		c.keyMemo = make(map[server.JobSpec]uint64)
	}
	c.keyMemo[spec] = h
	c.keyMu.Unlock()
	return h, true
}

// submitHash positions an untrusted-kernel submission on the ring by
// hashing its canonical re-marshal. Unlike jobHash this is not the
// content key (computing it would mean assembling the program twice),
// so equal programs submitted under different names or budgets may
// route to different nodes — that only costs cache temperature, never
// correctness.
func submitHash(sp *server.SubmitSpec) uint64 {
	payload, _ := json.Marshal(sp) // a flat struct of strings, ints and bools cannot fail
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// candidates returns the usable peers for a hash in attempt order:
// the optional prefer peer first (a batch runner sends its own shards
// to itself), then ring-preference order, with the bounded-load rule
// applied to the first pick — a peer already loaded past
// ceil(LoadFactor*(total+1)/alive) yields the primary slot to the next
// candidate (hot keys spill to ring successors instead of pinning one
// node). Peers with open breakers are excluded entirely.
func (c *Coordinator) candidates(h uint64, prefer string) []*peer {
	var cands []*peer
	if prefer != "" {
		if p := c.peers[prefer]; p != nil && p.br.State() != simcache.BreakerOpen {
			cands = append(cands, p)
		}
	}
	for _, name := range c.ring.Preference(h) {
		if name == prefer {
			continue
		}
		if p := c.peers[name]; p != nil && p.br.State() != simcache.BreakerOpen {
			cands = append(cands, p)
		}
	}
	if len(cands) < 2 {
		return cands
	}
	// Bounded load: demote overloaded primaries.
	var total int64
	for _, p := range c.peers {
		total += p.inflight.Load()
	}
	bound := int64(math.Ceil(c.opts.LoadFactor * float64(total+1) / float64(len(cands))))
	for i, p := range cands {
		if p.inflight.Load()+1 <= bound {
			if i > 0 {
				reordered := make([]*peer, 0, len(cands))
				reordered = append(reordered, p)
				for j, q := range cands {
					if j != i {
						reordered = append(reordered, q)
					}
				}
				return reordered
			}
			return cands
		}
	}
	// Everyone is past the bound: least-loaded first.
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].inflight.Load() < cands[j].inflight.Load()
	})
	return cands
}

// Run implements server.Runner over the ring: hash the request to its
// ring position and route it. A job spec that does not hash is invalid,
// so the local server answers it with the canonical structured error
// without a network hop.
func (c *Coordinator) Run(ctx context.Context, req server.Request) (server.JobResult, error) {
	switch {
	case req.Kernel != nil:
		return c.route(ctx, req, submitHash(req.Kernel), "")
	case req.Job != nil:
		if h, ok := c.jobHash(*req.Job); ok {
			return c.route(ctx, req, h, "")
		}
	}
	return c.opts.Local.Run(ctx, req)
}

// route runs one request around the ring: try candidates in order,
// feeding breakers and rerouting on peer failure, spilling past 429s,
// optionally hedging the first attempt, and degrading to the local
// server when no peer can answer. The error is an answer too: a
// deterministic failure from the first peer that gave one, or the last
// 429 when every reachable peer is saturated.
func (c *Coordinator) route(ctx context.Context, req server.Request, h uint64, prefer string) (server.JobResult, error) {
	cands := c.candidates(h, prefer)
	tr := obs.TraceFrom(ctx)

	var mu sync.Mutex
	attempted := make(map[string]bool, len(cands))
	var last429 *server.Error

	// try performs one peer attempt. done=true means res/err are final
	// (success, or a deterministic error every node would repeat);
	// done=false means move on (peer dead, probing denied, or 429).
	try := func(p *peer) (res server.JobResult, err error, done bool) {
		// Breaker admission: closed always passes, half-open grants one
		// probe, open denies (open peers were already filtered, but the
		// state may have moved since).
		if !p.br.Allow() {
			return res, nil, false
		}
		mu.Lock()
		attempted[p.name] = true
		mu.Unlock()
		p.inflight.Add(1)
		start := time.Now()
		res, err = p.Run(ctx, req)
		p.inflight.Add(-1)
		tr.AddSpan("peer "+p.name+" POST "+req.Path(), start, time.Now())
		// answer is the peer's own verdict, when it produced one; an err
		// without it means the peer was never usefully reached.
		var answer *server.Error
		errors.As(err, &answer)
		switch {
		case err != nil && (answer == nil || retryableStatus(answer.Status)):
			p.br.Failed()
			p.reqs[outcomeRerouted].Inc()
			c.reroutes.Inc()
			c.obs.Logger().Warn("peer attempt failed, rerouting",
				"peer", p.name, "path", req.Path(), "detail", err.Error(),
				"trace_id", obs.TraceIDFrom(ctx))
			return res, nil, false
		case answer != nil && answer.Status == http.StatusTooManyRequests:
			p.br.Succeeded()
			p.reqs[outcomeThrottled].Inc()
			mu.Lock()
			last429 = answer
			mu.Unlock()
			return res, nil, false
		}
		p.br.Succeeded()
		p.reqs[outcomeOK].Inc()
		return res, err, true
	}

	// Hedged first attempt: fire the primary, and if it has not
	// answered within HedgeAfter, race the second candidate. Sound
	// because both would return bit-identical results; the first usable
	// response wins and the loser's goroutine finishes harmlessly
	// (breakers and counters are concurrency-safe).
	if c.opts.HedgeAfter > 0 && len(cands) >= 2 {
		type outcome struct {
			res  server.JobResult
			err  error
			done bool
		}
		ch := make(chan outcome, 2)
		launch := func(p *peer) {
			go func() {
				res, err, done := try(p)
				ch <- outcome{res, err, done}
			}()
		}
		launch(cands[0])
		timer := time.NewTimer(c.opts.HedgeAfter)
		launched := 1
		select {
		case r := <-ch:
			timer.Stop()
			if r.done {
				return r.res, r.err
			}
		case <-timer.C:
			c.hedges.Inc()
			launch(cands[1])
			launched = 2
			for i := 0; i < launched; i++ {
				if r := <-ch; r.done {
					return r.res, r.err
				}
			}
		}
		// Whatever the hedge attempted is marked in `attempted`; the
		// sequential sweep below covers the rest.
	}

	for _, p := range cands {
		mu.Lock()
		tried := attempted[p.name]
		mu.Unlock()
		if tried {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		if res, err, done := try(p); done {
			return res, err
		}
	}

	mu.Lock()
	throttled := last429
	mu.Unlock()
	if throttled != nil {
		// Every reachable peer is saturated: answer with the last 429,
		// the same structured error a single node emits (queue depths,
		// queue_wait_p95_ms, retry_after_sec), so clients back off
		// identically against either topology.
		return server.JobResult{}, throttled
	}

	// Every peer is dead: single-node fallback, the ladder's last rung.
	c.fallbacks.Inc()
	c.obs.Event(ctx, obs.EventBreaker, "cluster.fallback", "all peers unavailable, serving locally")
	return c.opts.Local.Run(ctx, req)
}

// Handler returns the coordinator's HTTP API: the single node's front
// (server.NewHandler) mounted over the coordinator — the submission
// endpoints route across the ring, batches scatter — plus GET /cluster
// for ring and peer state. Everything else (metrics, health, debug,
// catalogue) is the local node's, whose Observer the coordinator
// shares, so /debug/traces/{id} shows the routing and per-peer hop
// spans on the timeline clients correlate peer-side.
func (c *Coordinator) Handler() http.Handler {
	return server.NewHandler(c.opts.Local, "coordinator", c, c.scatter,
		func(mux *http.ServeMux) { mux.HandleFunc("GET /cluster", c.handleCluster) })
}

// peerStatus is one row of the GET /cluster report.
type peerStatus struct {
	Name      string  `json:"name"`
	URL       string  `json:"url"`
	State     string  `json:"breaker_state"`
	InFlight  int64   `json:"in_flight"`
	RingShare float64 `json:"ring_share"`
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	peers := make([]peerStatus, 0, len(c.peers))
	for _, name := range c.ring.Nodes() {
		p := c.peers[name]
		peers = append(peers, peerStatus{
			Name:      p.name,
			URL:       p.url,
			State:     p.br.State().String(),
			InFlight:  p.inflight.Load(),
			RingShare: c.ring.OwnedFraction(name),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"self":        c.opts.Self,
		"vnodes":      c.opts.VNodes,
		"load_factor": c.opts.LoadFactor,
		"peers":       peers,
	})
}
