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

// retired sums the instructions issued before cycle now across the
// SM's blocks, a run's uncommitted part included. Bounded by BlocksPerSM
// (4 in the paper config), so the per-iteration budget check stays a
// handful of loads.
func (s *SM) retired(now int64) int64 {
	var n int64
	for _, blk := range s.blocks {
		n += blk.counters.IssuedInstrs
		if blk.runLen > 0 && now > blk.counters.Cycles {
			n += now - blk.counters.Cycles // one a cycle since its last step
		}
	}
	return n
}

// budgetExceeded checks every limited resource against the state at
// cycle now; it runs at the top of each advance (never inside
// Block.step, keeping the zero-alloc hot loop untouched) and allocates
// only on the kill path.
//
// Determinism argument: lock-step stepping checks at every visited
// cycle, and advance visits the same cycles except those it jumps over
// while every block is excused. Idle jumps visit nothing in between.
// A jump over runs does, and there only the cycle number and the
// instruction total move — by one instruction per issuing block per
// cycle; stores execute only in steps (STG is never
// fast-forward-simple) — so clampJump lands the loop on the first cycle
// at which a limit would read exceeded, and the kill is observed there
// with every run's prefix counted (retired) and then committed (settle).
func (s *SM) budgetExceeded(now int64) *BudgetError {
	b := s.budget
	if b.MaxCycles > 0 && now > b.MaxCycles {
		return &BudgetError{SM: s.id, Resource: ResourceCycles,
			Limit: b.MaxCycles, Used: now, Cycle: now}
	}
	if b.MaxInstrs > 0 {
		if used := s.retired(now); used > b.MaxInstrs {
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

// clampJump shortens the jump from now to due, across which issuing
// blocks each retire one run instruction per cycle, so that it lands on
// the first cycle lock-step stepping would stop at: maxCycles+1, or the
// first cycle at which a budget limit reads exceeded. Landing where no
// block is due is harmless.
func (s *SM) clampJump(now, due, issuing, maxCycles int64) int64 {
	if due > maxCycles+1 {
		due = maxCycles + 1
	}
	if b := s.budget; b != nil {
		if b.MaxCycles > 0 && due > b.MaxCycles+1 {
			due = b.MaxCycles + 1
		}
		if b.MaxInstrs > 0 {
			kill := now + 1
			if left := b.MaxInstrs - s.retired(now+1); left >= 0 {
				kill += 1 + left/issuing
			}
			if due > kill {
				due = kill
			}
		}
		if b.MaxMemBytes > 0 && int64(s.mem.Written())*4 > b.MaxMemBytes {
			due = now + 1 // a store at now went over, by a block that may now be in a run
		}
	}
	return due
}
