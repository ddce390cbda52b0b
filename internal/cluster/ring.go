// Package cluster turns N independent sisimd daemons into one
// cache-affine service: a coordinator consistent-hashes each job's
// simcache content key onto a ring of workers, so a key's results
// concentrate on few nodes and every node's memory-LRU tier stays hot
// for the keys it owns. The determinism contract (DESIGN §3) is what
// makes the scheme sound: a simulation result is a pure function of
// its content key, so ANY node's answer for a key is EVERY node's
// answer — routing affects only latency and cache temperature, never
// results.
//
// Failure handling reuses the repo's degradation ladder
// (simcache.Breaker): each peer gets a circuit breaker, a dead peer is
// routed around (the next node in ring order answers, bit-identically),
// and with every peer dead the coordinator degrades to local
// single-node serving. Large batches scatter-gather with per-peer
// in-flight windows and work stealing (scatter.go).
package cluster

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"subwarpsim/internal/simcache"
)

// Ring is a consistent-hash ring over named nodes, each mapped to
// VNodes points so ownership spreads evenly. Immutable after New, so
// reads need no lock; every coordinator built over the same (nodes,
// vnodes) agrees on every key's home node.
type Ring struct {
	vnodes int
	nodes  []string
	points []point // sorted by hash
}

type point struct {
	hash uint64
	node string
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256, the projection keys route by (simcache.Key.RouteHash). Every
// input byte reaches the high bits that order the ring, so a node's
// vnode names, which differ only in their last bytes, still spread over
// the whole ring; FNV-1a bunched them into a few arcs.
func ringHash(s string) uint64 {
	return simcache.Key(sha256.Sum256([]byte(s))).RouteHash()
}

// NewRing builds a ring over the given node names with vnodes virtual
// points per node (minimum 1; 0 means 64).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{vnodes: vnodes, nodes: append([]string(nil), nodes...)}
	r.points = make([]point, 0, len(nodes)*vnodes)
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break by name so point order — and therefore routing —
		// is identical no matter how the node list was ordered.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's node names in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Preference returns every distinct node in ring order starting at the
// successor of h: element 0 is the key's home node, element 1 the
// first reroute target when the home node is down, and so on. The
// fixed fallback order is what keeps rerouted keys concentrated — all
// of a dead node's keys shift to its ring successors instead of
// scattering.
func (r *Ring) Preference(h uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// OwnedFraction returns the fraction of the 64-bit hash space whose
// home node is the given node — the ring-ownership gauge, and a
// balance check for tests (with enough virtual nodes every node owns
// roughly 1/N).
func (r *Ring) OwnedFraction(node string) float64 {
	if len(r.points) == 0 {
		return 0
	}
	var owned float64
	for i, p := range r.points {
		if p.node != node {
			continue
		}
		prev := r.points[(i-1+len(r.points))%len(r.points)].hash
		// Unsigned wraparound subtraction handles the arc that crosses 0.
		owned += float64(p.hash - prev)
	}
	return owned / float64(^uint64(0))
}
