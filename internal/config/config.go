// Package config defines the architecture and policy parameters of the
// simulated Turing-like GPU, mirroring Table I of the paper plus the
// Subwarp Interleaving policy knobs from Sections III and V.
package config

import (
	"errors"
	"fmt"
	"strings"

	"subwarpsim/internal/faults"
	"subwarpsim/internal/trace"
)

// SelectTrigger encodes when the subwarp scheduler triggers a
// subwarp-select on a stalled warp, expressed as the fraction N of
// stalled warps among live warps in a processing block (Section III-C3).
type SelectTrigger int

const (
	// TriggerAnyStalled fires as soon as at least one warp in the
	// processing block is stalled (N > 0).
	TriggerAnyStalled SelectTrigger = iota
	// TriggerHalfStalled fires when at least half of the live warps are
	// stalled (N >= 0.5).
	TriggerHalfStalled
	// TriggerAllStalled fires only when every live warp is stalled
	// (N = 1), the most conservative, demand-based policy.
	TriggerAllStalled
)

// String returns the paper's notation for the trigger.
func (t SelectTrigger) String() string {
	switch t {
	case TriggerAnyStalled:
		return "N>0"
	case TriggerHalfStalled:
		return "N>=0.5"
	case TriggerAllStalled:
		return "N=1"
	default:
		return fmt.Sprintf("SelectTrigger(%d)", int(t))
	}
}

// ParseTrigger maps a CLI/API trigger name onto the config constant.
// The empty string parses as the N>=0.5 default.
func ParseTrigger(name string) (SelectTrigger, error) {
	switch strings.ToLower(name) {
	case "any":
		return TriggerAnyStalled, nil
	case "", "half":
		return TriggerHalfStalled, nil
	case "all":
		return TriggerAllStalled, nil
	default:
		return 0, fmt.Errorf("unknown trigger %q (any, half, all)", name)
	}
}

// Satisfied reports whether the trigger condition holds for the given
// stalled and live warp counts.
func (t SelectTrigger) Satisfied(stalled, live int) bool {
	if live == 0 || stalled == 0 {
		return false
	}
	switch t {
	case TriggerAnyStalled:
		return stalled > 0
	case TriggerHalfStalled:
		return 2*stalled >= live
	case TriggerAllStalled:
		return stalled >= live
	default:
		return false
	}
}

// SchedPolicy selects the warp-scheduler arbitration rule each
// processing block uses to pick the next issuing warp. Every policy is
// greedy on the last-issued warp (it keeps issuing while it can) and
// deterministic over the block's frozen warp statuses; policies differ
// only in which warp they fall back to when the greedy warp stalls.
// That stickiness is load-bearing: basic-block fast-forward assumes a
// re-pick of the same warp over unchanged statuses (see
// internal/sm/fastforward.go and DESIGN §15).
type SchedPolicy int

const (
	// SchedLRR is loose round-robin: on a stall, scan the warp slots
	// circularly starting after the last-issued slot and take the first
	// ready one. This is bit-identical to the pre-zoo scheduler and is
	// the default.
	SchedLRR SchedPolicy = iota
	// SchedGTO is greedy-then-oldest: on a stall, fall back to the
	// ready warp with the lowest warp ID (IDs are assigned in admission
	// order, so lowest ID = oldest).
	SchedGTO
	// SchedWaSP is a WaSP-style phase-offset policy (Zhang et al.,
	// PAPERS.md): warp slots are statically striped into phase groups
	// and earlier groups always win arbitration, so leader warps run
	// ahead of the pack and warm caches for the trailing groups;
	// within a group, arbitration is round-robin.
	SchedWaSP

	// NumSchedPolicies bounds the valid SchedPolicy values.
	NumSchedPolicies = int(SchedWaSP) + 1
)

// String returns the conventional short name for the policy.
func (p SchedPolicy) String() string {
	switch p {
	case SchedLRR:
		return "lrr"
	case SchedGTO:
		return "gto"
	case SchedWaSP:
		return "wasp"
	default:
		return fmt.Sprintf("SchedPolicy(%d)", int(p))
	}
}

// ParseSchedPolicy maps a CLI/API policy name onto the config
// constant. The empty string parses as the LRR default.
func ParseSchedPolicy(name string) (SchedPolicy, error) {
	switch strings.ToLower(name) {
	case "", "lrr":
		return SchedLRR, nil
	case "gto":
		return SchedGTO, nil
	case "wasp":
		return SchedWaSP, nil
	default:
		return 0, fmt.Errorf("unknown scheduler policy %q (lrr, gto, wasp)", name)
	}
}

// SubwarpOrder controls which side of a divergent branch the divergence
// handling unit activates first (Section VI discusses order sensitivity).
type SubwarpOrder int

const (
	// OrderTakenFirst activates the taken-path subwarp first, the
	// deterministic baseline behaviour.
	OrderTakenFirst SubwarpOrder = iota
	// OrderFallthroughFirst activates the fall-through subwarp first.
	OrderFallthroughFirst
	// OrderLargestFirst activates the subwarp with the most threads
	// first, mimicking predominant-subwarp scheduling.
	OrderLargestFirst
	// OrderRandom randomizes activation order per divergence event, the
	// mitigation suggested in the paper's Discussion section.
	OrderRandom
)

func (o SubwarpOrder) String() string {
	switch o {
	case OrderTakenFirst:
		return "taken-first"
	case OrderFallthroughFirst:
		return "fallthrough-first"
	case OrderLargestFirst:
		return "largest-first"
	case OrderRandom:
		return "random"
	default:
		return fmt.Sprintf("SubwarpOrder(%d)", int(o))
	}
}

// ParseOrder maps a CLI/API order name onto the config constant. The
// empty string parses as the taken-first default.
func ParseOrder(name string) (SubwarpOrder, error) {
	switch strings.ToLower(name) {
	case "", "taken":
		return OrderTakenFirst, nil
	case "fallthrough":
		return OrderFallthroughFirst, nil
	case "largest":
		return OrderLargestFirst, nil
	case "random":
		return OrderRandom, nil
	default:
		return 0, fmt.Errorf("unknown order %q (taken, fallthrough, largest, random)", name)
	}
}

// SI groups the Subwarp Interleaving feature knobs.
type SI struct {
	// Enabled turns the subwarp scheduler on. When false the model is
	// the baseline Turing-like SM with serialized subwarp execution.
	Enabled bool
	// Yield enables the optional subwarp-yield transition ("Both" in the
	// paper's result figures; plain switch-on-stall is "SOS").
	Yield bool
	// YieldThreshold is the number of outstanding long-latency
	// operations an active subwarp issues before it eagerly yields its
	// scheduling slot. Ignored unless Yield is set.
	YieldThreshold int
	// Trigger selects the subwarp-select trigger policy.
	Trigger SelectTrigger
	// MaxSubwarps caps independently schedulable subwarps per warp,
	// i.e. the number of Thread Status Table entries (Fig. 15 sweep).
	// Zero or WarpSize means unlimited (32).
	MaxSubwarps int
	// SwitchLatency is the fixed subwarp-select cost in cycles.
	SwitchLatency int
	// DWS approximates Dynamic Warp Subdivision (Meng et al., ISCA
	// 2010), the paper's closest related work (Section VII-B): diverged
	// subwarps run concurrently, but each concurrently parked subwarp
	// occupies one of the processing block's *free* warp slots, so DWS
	// starves when occupancy is high. Under DWS the subwarp switch is
	// free (splits live in their own slots) and selection is eager.
	DWS bool
}

// Config holds every architecture parameter of the simulated GPU.
// The zero value is not usable; start from Default().
type Config struct {
	// Table I parameters.
	NumSMs             int // streaming multiprocessors
	BlocksPerSM        int // processing blocks per SM
	WarpSlotsPerBlock  int // warp slots per processing block {2,4,8}
	L1DataBytes        int // L1 data cache size
	L1InstrBytes       int // L1 instruction cache size (per SM)
	L0InstrBytes       int // L0 instruction cache size (per processing block)
	L1MissLatency      int // cycles {300, 600, 900}
	L1DataHitLatency   int // cycles from issue to writeback on an L1D hit
	TexExtraLatency    int // additional cycles on the texture path
	CacheLineBytes     int // line size for all caches
	InstrBytes         int // encoded size of one instruction
	L0MissPenalty      int // fetch cycles to fill L0 from an L1I hit
	L1IMissPenalty     int // fetch cycles to fill L1I from memory
	RegFilePerBlock    int // 32-bit registers per processing block
	ScoreboardsPerWarp int // NSB count-based scoreboards per warp

	// RT core model.
	RTStepLatency int // cycles per BVH traversal step
	RTBaseLatency int // fixed overhead per TraceRay

	// Scheduling.
	Order SubwarpOrder // divergent-branch activation order
	// SchedPolicy is the warp-scheduler arbitration rule (default
	// SchedLRR, the pre-zoo behaviour). The result cache keys it only
	// when it differs from LRR, so existing cache entries stay valid.
	SchedPolicy SchedPolicy

	// Compiled is a benchmark switch, not an architecture parameter:
	// when true (the default, and the only value a CLI, the daemon or a
	// recorded run uses) eligible straight-line convergent regions are
	// retired in bulk (basic-block fast-forward); false turns that off
	// so the repository benchmark's probe (benchmark/probes.go) can time
	// the stepped regime against it. Results — counters, derived
	// metrics, memory fingerprints, recorded events — are bit-identical
	// either way, so like Trace and Faults it is excluded from the
	// result-cache canonicalization. Retiring it waits for a change to
	// the benchmark.
	Compiled bool

	// Subwarp Interleaving.
	SI SI

	// Trace optionally attaches the observability layer's event
	// recorder to the run. It is not an architecture parameter: nil
	// (the default) disables tracing entirely, and every hot-path
	// emission site gates on a single nil check, so simulation results
	// and performance are unchanged when unset.
	Trace *trace.Recorder

	// Check turns the simulator's self-checks on. Like Trace it is not an
	// architecture parameter and never changes a result, so the
	// result-cache canonicalization leaves it out: every processing
	// block is stepped at every visited cycle, and a block whose own
	// time excused it from one must step as predicted (sm.Block's
	// stepExcused); every remembered divergence bit is compared with a
	// lane scan where it is read. A failed check panics. Tests and the
	// fuzzers set it; nothing a user reaches does.
	Check bool

	// Faults optionally attaches the deterministic fault-injection
	// layer to the run. Like Trace it is not an architecture
	// parameter: it is excluded from the result-cache canonicalization
	// (injected latency never changes simulated counters, and injected
	// errors/panics abort the run before any result is published), and
	// nil — the default — injects nothing.
	Faults *faults.Injector
}

// Default returns the paper's baseline Turing-like configuration
// (Table I) with SI disabled: 2 SMs, 4 processing blocks per SM, 8 warp
// slots per block (32 warp slots per SM), 128 KB L1D, 64 KB L1I, 16 KB
// L0I, 600-cycle L1 miss latency, 6-cycle subwarp switch latency.
func Default() Config {
	return Config{
		NumSMs:             2,
		BlocksPerSM:        4,
		WarpSlotsPerBlock:  8,
		L1DataBytes:        128 << 10,
		L1InstrBytes:       64 << 10,
		L0InstrBytes:       16 << 10,
		L1MissLatency:      600,
		L1DataHitLatency:   30,
		TexExtraLatency:    20,
		CacheLineBytes:     128,
		InstrBytes:         8,
		L0MissPenalty:      20,
		L1IMissPenalty:     200,
		RegFilePerBlock:    16384,
		ScoreboardsPerWarp: 8,
		RTStepLatency:      8,
		RTBaseLatency:      150,
		Order:              OrderTakenFirst,
		Compiled:           true,
		SI: SI{
			Enabled:        false,
			Yield:          false,
			YieldThreshold: 1,
			Trigger:        TriggerHalfStalled,
			MaxSubwarps:    0,
			SwitchLatency:  6,
		},
	}
}

// WithSI returns a copy of c with Subwarp Interleaving enabled using the
// given yield mode and trigger policy.
func (c Config) WithSI(yield bool, trigger SelectTrigger) Config {
	c.SI.Enabled = true
	c.SI.Yield = yield
	c.SI.Trigger = trigger
	return c
}

// WithDWS returns a copy of c modeling Dynamic Warp Subdivision: eager
// subwarp parallelism budgeted by free warp slots.
func (c Config) WithDWS() Config {
	c.SI.Enabled = true
	c.SI.DWS = true
	c.SI.Yield = false
	c.SI.Trigger = TriggerAnyStalled
	c.SI.SwitchLatency = 1
	return c
}

// WarpSlotsPerSM returns the total warp slots across an SM's processing
// blocks.
func (c Config) WarpSlotsPerSM() int { return c.BlocksPerSM * c.WarpSlotsPerBlock }

// EffectiveMaxSubwarps normalizes the MaxSubwarps knob: zero and values
// above 32 both mean the unlimited 32-entry TST.
func (c Config) EffectiveMaxSubwarps() int {
	if !c.SI.Enabled {
		return 1
	}
	if c.SI.MaxSubwarps <= 0 || c.SI.MaxSubwarps > 32 {
		return 32
	}
	return c.SI.MaxSubwarps
}

// InstrsPerLine returns how many encoded instructions fit in one
// instruction cache line.
func (c Config) InstrsPerLine() int { return c.CacheLineBytes / c.InstrBytes }

// Validate reports the first configuration error found, or nil.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case c.BlocksPerSM <= 0:
		return errors.New("config: BlocksPerSM must be positive")
	case c.WarpSlotsPerBlock <= 0:
		return errors.New("config: WarpSlotsPerBlock must be positive")
	case c.L1MissLatency <= 0:
		return errors.New("config: L1MissLatency must be positive")
	case c.L1DataHitLatency <= 0:
		return errors.New("config: L1DataHitLatency must be positive")
	case c.CacheLineBytes <= 0 || c.CacheLineBytes&(c.CacheLineBytes-1) != 0:
		return errors.New("config: CacheLineBytes must be a positive power of two")
	case c.InstrBytes <= 0 || c.CacheLineBytes%c.InstrBytes != 0:
		return errors.New("config: InstrBytes must divide CacheLineBytes")
	case c.L0InstrBytes < c.CacheLineBytes:
		return errors.New("config: L0InstrBytes smaller than one line")
	case c.L1InstrBytes < c.CacheLineBytes:
		return errors.New("config: L1InstrBytes smaller than one line")
	case c.L1DataBytes < c.CacheLineBytes:
		return errors.New("config: L1DataBytes smaller than one line")
	case c.ScoreboardsPerWarp <= 0 || c.ScoreboardsPerWarp > 16:
		return errors.New("config: ScoreboardsPerWarp must be in [1,16]")
	case c.RegFilePerBlock <= 0:
		return errors.New("config: RegFilePerBlock must be positive")
	case c.SchedPolicy < 0 || int(c.SchedPolicy) >= NumSchedPolicies:
		return errors.New("config: SchedPolicy out of range")
	}
	if c.SI.Enabled {
		if c.SI.SwitchLatency < 0 {
			return errors.New("config: SI.SwitchLatency must be non-negative")
		}
		if c.SI.Yield && c.SI.YieldThreshold <= 0 {
			return errors.New("config: SI.YieldThreshold must be positive when Yield is set")
		}
		if c.SI.MaxSubwarps < 0 {
			return errors.New("config: SI.MaxSubwarps must be non-negative")
		}
	}
	return nil
}

// PolicyName returns the paper's label for the SI configuration,
// e.g. "baseline", "SOS,N=1" or "Both,N>=0.5".
func (c Config) PolicyName() string {
	if !c.SI.Enabled {
		return "baseline"
	}
	if c.SI.DWS {
		return "DWS"
	}
	mode := "SOS"
	if c.SI.Yield {
		mode = "Both"
	}
	return mode + "," + c.SI.Trigger.String()
}
