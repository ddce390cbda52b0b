package sm

import "subwarpsim/internal/config"

// Policy is a warp-scheduler arbitration rule: each cycle the block
// asks its policy which warp slot should issue next, over the frozen
// per-slot issue classes computed at the top of Block.step.
//
// Every implementation must satisfy two contracts:
//
//   - Greedy stickiness: if the last-issued slot can issue, Pick
//     returns it. A block that issued excuses itself from the cycles
//     of its warp's straight-line simple run (Block.plan) on the
//     assumption that every one of those steps would re-pick the same
//     warp while its status stays classCanIssue; a non-sticky policy
//     would make fast-forwarded and stepped runs diverge.
//   - Determinism and time-independence: Pick is a pure function of
//     the block's slot statuses, warp IDs, and lastIssued — never of
//     the cycle number, wall clock, or any random source — so results
//     are bit-identical across worker counts and regimes.
//
// Implementations are stateless singletons (all scheduling state lives
// on the Block), keeping the hot loop allocation-free.
type Policy interface {
	// Name returns the config-level short name ("lrr", "gto", "wasp").
	Name() string
	// Pick returns the slot that should issue this cycle, or -1 when
	// no slot is in classCanIssue.
	Pick(b *Block) int
}

// policyFor maps the config knob onto the package's singleton
// implementations. An out-of-range value (rejected by Config.Validate)
// falls back to LRR rather than panicking mid-simulation.
func policyFor(p config.SchedPolicy) Policy {
	switch p {
	case config.SchedGTO:
		return gtoPolicy{}
	case config.SchedWaSP:
		return waspPolicy{}
	default:
		return lrrPolicy{}
	}
}

// PolicyFor exposes the policy singletons for tests and tooling.
func PolicyFor(p config.SchedPolicy) Policy { return policyFor(p) }

// lrrPolicy is loose round-robin, bit-identical to the pre-zoo
// scheduler: keep the greedy warp while it can issue; on a stall, scan
// slots circularly starting just after lastIssued and take the first
// ready one.
type lrrPolicy struct{}

func (lrrPolicy) Name() string { return config.SchedLRR.String() }

func (lrrPolicy) Pick(b *Block) int {
	n := len(b.warps)
	if b.lastIssued < n && b.statuses[b.lastIssued] == classCanIssue {
		return b.lastIssued
	}
	for off := 1; off <= n; off++ {
		i := (b.lastIssued + off) % n
		if b.statuses[i] == classCanIssue {
			return i
		}
	}
	return -1
}

// gtoPolicy is greedy-then-oldest: keep the greedy warp while it can
// issue; on a stall, fall back to the ready warp with the lowest warp
// ID. IDs are assigned in admission order and never reused within a
// run, so the lowest ID is the oldest resident warp and the tie-break
// is total — no secondary rule needed.
type gtoPolicy struct{}

func (gtoPolicy) Name() string { return config.SchedGTO.String() }

func (gtoPolicy) Pick(b *Block) int {
	n := len(b.warps)
	if b.lastIssued < n && b.statuses[b.lastIssued] == classCanIssue {
		return b.lastIssued
	}
	pick, best := -1, 0
	for i := 0; i < n; i++ {
		if b.statuses[i] != classCanIssue {
			continue
		}
		if id := b.warps[i].ID; pick < 0 || id < best {
			pick, best = i, id
		}
	}
	return pick
}

// waspPhases is the number of static phase groups a WaSP-style
// scheduler stripes the block's warp slots into: a leader half and a
// trailing half. Two (not more) matters: with the typical four
// resident warps, finer striping degenerates to group-of-one slot
// priority, which is indistinguishable from GTO whenever slots fill
// in age order.
const waspPhases = 2

// waspPolicy is a WaSP-style phase-offset policy: slots are striped
// into waspPhases contiguous groups by slot index, and on a stall the
// earliest group with a ready warp always wins arbitration — the
// leader group runs ahead of the pack, warming caches for the trailing
// groups (the "mimic prefetching" effect). Within a group, arbitration
// is round-robin by circular distance from lastIssued, so a group's
// warps advance in loose lockstep.
type waspPolicy struct{}

func (waspPolicy) Name() string { return config.SchedWaSP.String() }

func (waspPolicy) Pick(b *Block) int {
	n := len(b.warps)
	if b.lastIssued < n && b.statuses[b.lastIssued] == classCanIssue {
		return b.lastIssued
	}
	pick, bestPhase, bestDist := -1, 0, 0
	for i := 0; i < n; i++ {
		if b.statuses[i] != classCanIssue {
			continue
		}
		phase := i * waspPhases / n
		dist := (i - b.lastIssued - 1 + n) % n
		if pick < 0 || phase < bestPhase || (phase == bestPhase && dist < bestDist) {
			pick, bestPhase, bestDist = i, phase, dist
		}
	}
	return pick
}
