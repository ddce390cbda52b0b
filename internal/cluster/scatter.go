package cluster

import (
	"context"
	"net/http"
	"sync"

	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
)

// scatter is the coordinator's batch scheduler (the single node's is
// plain fan-out; the /v1/batch prologue in front of both is the
// server's): it fans a batch across the ring and gathers results back
// in request order.
//
// Sharding: each job is queued to its affinity owner (the first
// live node in its ring preference). Each owner gets Window runner
// slots — the per-peer in-flight window — so a large sweep cannot
// flood one worker's admission queue with hundreds of simultaneous
// requests.
//
// Work stealing: a runner whose own queue runs dry takes shards from
// the tail of the longest remaining queue and executes them on ITS
// peer (prefer=thief). That deliberately trades cache affinity for
// utilization — an idle worker simulating a shard beats a hot cache
// nobody can reach — and is exactly the "queued shards migrate to
// idle peers" behavior the lagging-peer case needs. Stolen shards
// stay bit-identical by the determinism contract.
//
// Failure: each shard execution is a full route, so a peer dying
// mid-sweep trips its breaker and the remaining shards reroute around
// the ring; with every peer dead they run locally. The result slice
// is indexed by original position throughout — no failure mode can
// drop or reorder entries.
func (c *Coordinator) scatter(ctx context.Context, specs []server.JobSpec) []server.JobResult {
	n := len(specs)
	results := make([]server.JobResult, n)
	hashes := make([]uint64, n)
	routable := make([]bool, n)
	for i, spec := range specs {
		hashes[i], routable[i] = c.jobHash(spec)
	}
	c.batches.Add(int64(n))

	// Build per-owner queues. The "" queue is the local pseudo-peer:
	// unroutable (invalid) specs, and every spec when there are no
	// peers at all.
	queues := make(map[string][]int)
	for i := range specs {
		owner := ""
		if routable[i] {
			for _, name := range c.ring.Preference(hashes[i]) {
				if p := c.peers[name]; p != nil && p.br.State() != simcache.BreakerOpen {
					owner = name
					break
				}
			}
		}
		queues[owner] = append(queues[owner], i)
	}

	var mu sync.Mutex
	// popOwn takes the next shard from the runner's own queue.
	popOwn := func(owner string) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		q := queues[owner]
		if len(q) == 0 {
			return 0, false
		}
		idx := q[0]
		queues[owner] = q[1:]
		return idx, true
	}
	// stealFrom takes a shard from the TAIL of the longest other
	// routable queue (the tail is the work its owner is furthest from
	// reaching, so stealing it delays nothing). The local "" queue is
	// not stealable: it holds unroutable specs whose canonical errors
	// must come from the local server.
	stealFrom := func(thief string) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		longest, max := "", 0
		for owner, q := range queues {
			if owner == "" || owner == thief {
				continue
			}
			if len(q) > max {
				longest, max = owner, len(q)
			}
		}
		if max == 0 {
			return 0, false
		}
		q := queues[longest]
		idx := q[len(q)-1]
		queues[longest] = q[:len(q)-1]
		return idx, true
	}

	runOne := func(owner string, idx int) {
		req := server.Request{Job: &specs[idx]}
		var res server.JobResult
		var err error
		if routable[idx] {
			res, err = c.route(ctx, req, hashes[idx], owner)
		} else {
			res, err = c.opts.Local.Run(ctx, req)
		}
		if err != nil {
			res = server.ErrorResult(specs[idx].WorkloadID(), err)
		}
		results[idx] = res
	}

	var wg sync.WaitGroup
	runner := func(owner string) {
		defer wg.Done()
		for {
			if ctx.Err() != nil {
				return
			}
			if idx, ok := popOwn(owner); ok {
				runOne(owner, idx)
				continue
			}
			if owner == "" {
				return // the local queue only drains itself
			}
			idx, ok := stealFrom(owner)
			if !ok {
				return
			}
			c.steals.Inc()
			runOne(owner, idx)
		}
	}

	// Every live peer gets Window runners — including peers that own no
	// shards. An owner-less runner's queue is empty from the start, so
	// it goes straight to stealing: that is how an idle peer drains a
	// lagging peer's backlog even when the hash gave it nothing.
	owners := make([]string, 0, len(c.peers)+1)
	for name, p := range c.peers {
		if p.br.State() != simcache.BreakerOpen {
			owners = append(owners, name)
		}
	}
	if len(queues[""]) > 0 || len(owners) == 0 {
		owners = append(owners, "")
	}
	// Union in any queue owner the loop above missed (a breaker that
	// opened between queue building and runner spawn): every queue must
	// have at least its own runners or its shards would never run.
	have := make(map[string]bool, len(owners))
	for _, o := range owners {
		have[o] = true
	}
	for owner := range queues {
		if !have[owner] {
			owners = append(owners, owner)
		}
	}
	for _, owner := range owners {
		for s := 0; s < c.opts.Window; s++ {
			wg.Add(1)
			go runner(owner)
		}
	}
	wg.Wait()

	// Shards abandoned by context cancellation keep zero-value results;
	// stamp them so no entry is silently empty.
	if ctx.Err() != nil {
		for i := range results {
			if results[i].Key == "" && results[i].Error == "" {
				results[i] = server.ErrorResult(specs[i].WorkloadID(), &server.Error{
					Status: http.StatusRequestTimeout,
					Msg:    "batch abandoned: " + ctx.Err().Error(),
				})
			}
		}
	}
	return results
}
