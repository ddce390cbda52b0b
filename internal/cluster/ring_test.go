package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRingBalance checks that virtual nodes spread ownership evenly over
// the names peers really have: loopback host:port triples, as a
// three-worker cluster on one machine is named — the repository
// benchmark's own ports, then seeded triples of adjacent and of random
// ports. With 64 vnodes every node must own between a fifth and a half
// of the hash space, and the shares must sum to the whole ring.
func TestRingBalance(t *testing.T) {
	rings := [][]int{{18471, 18472, 18473}}
	rng := rand.New(rand.NewSource(1))
	for len(rings) < 401 {
		p := 1024 + rng.Intn(60000)
		rings = append(rings, []int{p, p + 1, p + 2})
		q, r := 1024+rng.Intn(60000), 1024+rng.Intn(60000)
		if q != p && r != p && r != q {
			rings = append(rings, []int{p, q, r})
		}
	}
	for _, ports := range rings {
		var nodes []string
		for _, p := range ports {
			nodes = append(nodes, fmt.Sprintf("127.0.0.1:%d", p))
		}
		r := NewRing(nodes, 64)
		var sum float64
		for _, n := range nodes {
			f := r.OwnedFraction(n)
			if f < 0.2 || f > 0.5 {
				t.Errorf("ring %v: OwnedFraction(%s) = %.3f, want within [0.2, 0.5]", ports, n, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("ring %v: ownership fractions sum to %.9f, want 1", ports, sum)
		}
	}
}

// TestRingOrderIndependence: the ring must route identically no matter
// how the node list was ordered, or two coordinators configured with
// the same peers in different flag order would disagree on key homes.
func TestRingOrderIndependence(t *testing.T) {
	a := NewRing([]string{"w1", "w2", "w3"}, 32)
	b := NewRing([]string{"w3", "w1", "w2"}, 32)
	for h := uint64(0); h < 200; h++ {
		// Spread probes across the space, not just near zero.
		probe := h * 0x9e3779b97f4a7c15
		pa, pb := a.Preference(probe), b.Preference(probe)
		if fmt.Sprint(pa) != fmt.Sprint(pb) {
			t.Fatalf("Preference(%#x) differs by construction order: %v vs %v", probe, pa, pb)
		}
	}
}

// TestRingPreferenceComplete: every preference list is a permutation
// of all nodes (distinct, complete), so reroute-around-the-ring can
// always reach every live peer.
func TestRingPreferenceComplete(t *testing.T) {
	nodes := []string{"w1", "w2", "w3", "w4"}
	r := NewRing(nodes, 16)
	for h := uint64(0); h < 100; h++ {
		probe := h * 0x9e3779b97f4a7c15
		pref := r.Preference(probe)
		if len(pref) != len(nodes) {
			t.Fatalf("Preference(%#x) has %d entries, want %d: %v", probe, len(pref), len(nodes), pref)
		}
		seen := map[string]bool{}
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("Preference(%#x) repeats %q: %v", probe, n, pref)
			}
			seen[n] = true
		}
	}
}

// TestRingDeadNodeKeysConcentrate: with the home node skipped, all of
// its keys land on ring successors — preference element 1 — which is
// what keeps a dead node's load from scattering randomly.
func TestRingDeadNodeKeysConcentrate(t *testing.T) {
	r := NewRing([]string{"w1", "w2", "w3"}, 64)
	for h := uint64(0); h < 100; h++ {
		probe := h * 0x9e3779b97f4a7c15
		pref := r.Preference(probe)
		if pref[0] == pref[1] {
			t.Fatalf("home and first fallback identical for %#x", probe)
		}
	}
}

// TestRingEmpty: a ring with no nodes routes nothing but never panics
// (the coordinator with zero peers serves everything locally).
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 64)
	if p := r.Preference(42); p != nil {
		t.Errorf("empty ring Preference = %v, want nil", p)
	}
	if f := r.OwnedFraction("w1"); f != 0 {
		t.Errorf("empty ring OwnedFraction = %v, want 0", f)
	}
}
