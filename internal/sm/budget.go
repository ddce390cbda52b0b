package sm

import "fmt"

// Budget resource names, as reported by BudgetError.Resource and used
// as the {resource=...} label of sisimd_budget_kills_total.
const (
	ResourceCycles       = "cycles"
	ResourceInstructions = "instructions"
	ResourceMemory       = "memory"
)

// Budget is a per-SM gas limit for untrusted kernels. Every SM of a
// launch enforces the same budget independently (per-SM enforcement is
// what keeps budget kills bit-identical for every worker count: no
// cross-SM coordination, and gpu.RunContext's deterministic epilogue
// picks the first over-budget SM in SM order). A zero field means that
// resource is unlimited; a nil *Budget disables metering entirely and
// costs the run loop one pointer check per iteration.
type Budget struct {
	// MaxCycles bounds simulated cycles: the run is killed at the first
	// scheduler iteration whose cycle exceeds it.
	MaxCycles int64
	// MaxInstrs bounds retired instructions summed across the SM's
	// processing blocks.
	MaxInstrs int64
	// MaxMemBytes bounds the memory footprint: distinct words stored by
	// the SM's view of the functional memory image, times 4 bytes.
	// It doubles as the submitted kernel's declared footprint, which
	// admission checks memory-operand immediates against statically.
	MaxMemBytes int64
}

// Enabled reports whether any resource is actually limited.
func (b *Budget) Enabled() bool {
	return b != nil && (b.MaxCycles > 0 || b.MaxInstrs > 0 || b.MaxMemBytes > 0)
}

// BudgetError reports a deterministic gas kill: which SM, which
// resource ran out, and the exact usage at the kill point. The same
// (config, program, workload, budget) always kills at the same point
// with the same counters, in both execution regimes and for every
// worker count — the differential tests in internal/gpu pin this.
type BudgetError struct {
	SM       int
	Resource string // ResourceCycles, ResourceInstructions, ResourceMemory
	Limit    int64
	Used     int64
	Cycle    int64 // simulated cycle at which the kill was observed
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sm %d: budget exhausted: %s used %d exceeds limit %d at cycle %d",
		e.SM, e.Resource, e.Used, e.Limit, e.Cycle)
}

// DeadlockError reports a structural deadlock: every resident warp is
// blocked on something that can never resolve (the canonical shape is
// two divergent paths waiting at different BSYNCs of one barrier).
// Like a budget kill it is deterministic and the submission's fault,
// not the simulator's, so serving layers map it to a client error.
type DeadlockError struct {
	SM    int
	Cycle int64
	// State is the per-warp diagnostic dump at the deadlock.
	State string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sm %d: deadlock at cycle %d\n%s", e.SM, e.Cycle, e.State)
}

// retired sums instructions retired so far across the SM's blocks.
// Bounded by BlocksPerSM (4 in the paper config), so the per-iteration
// budget check stays a handful of loads.
func (s *SM) retired() int64 {
	var n int64
	for _, blk := range s.blocks {
		n += blk.counters.IssuedInstrs
	}
	return n
}

// budgetExceeded checks every limited resource against the state at
// cycle now; it runs at the top of each RunContext iteration (never
// inside Block.step, keeping the zero-alloc hot loop untouched) and
// allocates only on the kill path.
//
// Determinism argument, per resource:
//
//   - cycles: the stepped regime visits every non-idle cycle; the
//     fast-forward regime additionally jumps over simple runs. Idle
//     skips are taken identically by both regimes (they are part of the
//     shared run loop), and clampBudgetHorizon caps fast-forward
//     windows at MaxCycles+1, so both regimes observe the same first
//     now > MaxCycles.
//   - instructions: instruction counts only change at stepped cycles
//     and inside fast-forward commits. clampBudgetHorizon sizes windows
//     so a commit can never push the total past MaxInstrs (each issuing
//     block retires exactly one instruction per window cycle), so the
//     first over-budget total always appears at a stepped cycle — the
//     same cycle in both regimes, by the regimes' bit-identity.
//   - memory: stores execute only at stepped cycles (STG is never
//     fast-forward-simple), and clampBudgetHorizon refuses to open a
//     window while the footprint is over budget, so the kill is
//     observed at now = storeCycle+1 in both regimes.
func (s *SM) budgetExceeded(now int64) *BudgetError {
	b := s.budget
	if b.MaxCycles > 0 && now > b.MaxCycles {
		return &BudgetError{SM: s.id, Resource: ResourceCycles,
			Limit: b.MaxCycles, Used: now, Cycle: now}
	}
	if b.MaxInstrs > 0 {
		if used := s.retired(); used > b.MaxInstrs {
			return &BudgetError{SM: s.id, Resource: ResourceInstructions,
				Limit: b.MaxInstrs, Used: used, Cycle: now}
		}
	}
	if b.MaxMemBytes > 0 {
		if used := int64(s.mem.Written()) * 4; used > b.MaxMemBytes {
			return &BudgetError{SM: s.id, Resource: ResourceMemory,
				Limit: b.MaxMemBytes, Used: used, Cycle: now}
		}
	}
	return nil
}

// clampBudgetHorizon caps a fast-forward window [now+1, h) so that no
// budget limit can be crossed inside it: crossings then happen only at
// stepped cycles, which both regimes execute identically. Shortening a
// window is always semantically safe (any prefix of a valid inert
// window is a valid inert window); returning now+1 degrades to plain
// single-cycle advance.
func (s *SM) clampBudgetHorizon(now, h int64) int64 {
	b := s.budget
	if b.MaxCycles > 0 && h > b.MaxCycles+1 {
		h = b.MaxCycles + 1
	}
	if b.MaxInstrs > 0 {
		used := s.retired()
		if used > b.MaxInstrs {
			return now + 1
		}
		var issuing int64
		for _, blk := range s.blocks {
			if !blk.done && blk.lastPick >= 0 {
				issuing++
			}
		}
		if issuing > 0 {
			// Each issuing block retires exactly one instruction per window
			// cycle (ffCommit's accounting), so the window may cover at most
			// floor((MaxInstrs-used)/issuing) cycles before the total could
			// exceed the limit at the next stepped cycle.
			if cap := now + 1 + (b.MaxInstrs-used)/issuing; h > cap {
				h = cap
			}
		}
	}
	if b.MaxMemBytes > 0 && int64(s.mem.Written())*4 > b.MaxMemBytes {
		return now + 1
	}
	if h < now+1 {
		h = now + 1
	}
	return h
}
