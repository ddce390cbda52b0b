package sm

import (
	"context"
	"fmt"
	"math"
	"strings"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/tst"
)

// Kernel is one launch: a program, its warp count, and the functional
// resources it executes against.
type Kernel struct {
	Program *isa.Program
	// NumWarps is the total warps in the launch; warps beyond the
	// occupancy limit queue for freed slots (persistent waves).
	NumWarps int
	// WarpsPerCTA sizes the cooperative thread array for S2R special
	// registers.
	WarpsPerCTA int
	// Memory is the functional global/texture backing store the launch
	// starts from. A run reads it and never writes it: stores land in
	// per-SM views and come back as the run's result (gpu.Result.Memory),
	// so one kernel serves any number of runs, concurrent ones included.
	Memory *mem.Memory
	// BVH and RayGen configure the RT core; nil unless the program uses
	// TRACE.
	BVH    *rtcore.BVH
	RayGen rtcore.RayGen
	// Hits, when non-nil, is the table in which the RT core looks up and
	// leaves each ray's hit, so a ray is traversed once however many
	// runs trace it. It must belong to this BVH and RayGen (the hit is a
	// pure function of scene and ray ID) and is the one part of a kernel
	// a run fills in; it never changes a result.
	Hits rtcore.HitTable
	// Budget, when non-nil, gas-meters the launch: each SM independently
	// enforces the limits and kills the run with a *BudgetError at a
	// deterministic point (see Budget). Nil means unmetered.
	Budget *Budget
}

// CTASize returns threads per CTA.
func (k *Kernel) CTASize() int { return k.WarpsPerCTA * bits.WarpSize }

// Validate reports the first kernel configuration error.
func (k *Kernel) Validate() error {
	if k.Program == nil {
		return fmt.Errorf("sm: kernel has no program")
	}
	if err := k.Program.Validate(); err != nil {
		return err
	}
	if k.NumWarps <= 0 {
		return fmt.Errorf("sm: kernel %q has no warps", k.Program.Name)
	}
	if k.WarpsPerCTA <= 0 {
		return fmt.Errorf("sm: kernel %q has non-positive WarpsPerCTA", k.Program.Name)
	}
	if k.Memory == nil {
		return fmt.Errorf("sm: kernel %q has no memory", k.Program.Name)
	}
	usesTrace := false
	for _, in := range k.Program.Code {
		if in.Op == isa.TRACE {
			usesTrace = true
			break
		}
	}
	if usesTrace && (k.BVH == nil || k.RayGen == nil) {
		return fmt.Errorf("sm: kernel %q uses TRACE but has no BVH/RayGen", k.Program.Name)
	}
	return nil
}

// SM is one streaming multiprocessor: processing blocks sharing an L1
// instruction cache, an L1 data cache, and an RT core.
type SM struct {
	id     int
	cfg    config.Config
	prog   *isa.Program
	kernel *Kernel

	l1i    *mem.Cache
	l1d    *mem.Cache
	rt     *rtcore.Core
	blocks []*Block

	// ffLen enables basic-block fast-forward: per-PC simple-run
	// lengths, nil when cfg.Compiled is off. deadAt is the program's
	// isa.Compiled.DeadAt, which ffCommit skips writes by.
	ffLen, deadAt []int32

	// mem is the SM's private copy-on-write view of the kernel's
	// functional memory image; it is what makes SMs safe to simulate
	// concurrently (see mem.View).
	mem *mem.View

	// budget is the kernel's gas limit (nil when unmetered); checked at
	// the top of each advance, never inside Block.step.
	budget *Budget

	// now is the cycle the run loop is at; visits counts the cycles it
	// has visited up to and including now (see advance).
	now, visits int64
}

// NewSM builds an SM for the given kernel. The configuration must be
// valid (see config.Config.Validate).
func NewSM(id int, cfg config.Config, kernel *Kernel) (*SM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := kernel.Validate(); err != nil {
		return nil, err
	}
	if maxSB := kernel.Program.MaxScoreboard(); maxSB >= cfg.ScoreboardsPerWarp {
		return nil, fmt.Errorf("sm: program %q uses sb%d but config has %d scoreboards/warp",
			kernel.Program.Name, maxSB, cfg.ScoreboardsPerWarp)
	}
	s := &SM{
		id:     id,
		cfg:    cfg,
		prog:   kernel.Program,
		kernel: kernel,
		l1i:    mem.NewCache("L1I", cfg.L1InstrBytes, 8, cfg.CacheLineBytes),
		l1d:    mem.NewCache("L1D", cfg.L1DataBytes, 8, cfg.CacheLineBytes),
		visits: 1,
	}
	var allowance int64 // page bytes the view may hold; unbudgeted runs have no limit
	if kernel.Budget.Enabled() {
		s.budget = kernel.Budget
		allowance = kernel.Budget.MaxMemBytes
	}
	s.mem = kernel.Memory.NewView(allowance)
	if kernel.BVH != nil && kernel.RayGen != nil {
		s.rt = rtcore.NewCore(kernel.BVH, kernel.RayGen, kernel.Hits,
			int64(cfg.RTBaseLatency), int64(cfg.RTStepLatency))
	}
	if cfg.Compiled {
		cp := kernel.Program.Compiled()
		s.deadAt = cp.DeadAt
		if cfg.SI.Enabled && cfg.SI.Yield {
			s.ffLen = cp.FFLen
		} else {
			// YIELD is architecturally inert in this configuration, so
			// it may sit inside fast-forward runs.
			s.ffLen = cp.FFLenYieldInert
		}
	}
	for b := 0; b < cfg.BlocksPerSM; b++ {
		s.blocks = append(s.blocks, newBlock(b, cfg, s))
	}
	return s, nil
}

// ResidentWarpsPerBlock returns the occupancy limit: warp slots capped
// by register-file pressure (Section II-B), at least one.
func (s *SM) ResidentWarpsPerBlock() int {
	regsPerWarp := s.prog.RegsPerThread * bits.WarpSize
	byRegs := s.cfg.RegFilePerBlock / regsPerWarp
	n := s.cfg.WarpSlotsPerBlock
	if byRegs < n {
		n = byRegs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Admit assigns a warp to one of the SM's blocks (round-robin by
// sequence number).
func (s *SM) Admit(seq int, id, ctaID, warpInCTA int) {
	blk := s.blocks[seq%len(s.blocks)]
	blk.admit(warpSpec{id: id, ctaID: ctaID, warpInCTA: warpInCTA}, s.ResidentWarpsPerBlock())
}

// Memory exposes the SM's view of the kernel image: everything the SM
// has stored so far, over the untouched image. It must not be read
// while the SM is simulating.
func (s *SM) Memory() *mem.View { return s.mem }

// Run simulates until every admitted warp completes or maxCycles
// elapses, returning the merged per-block counters. It is shorthand
// for RunContext with a background context.
func (s *SM) Run(maxCycles int64) (stats.Counters, error) {
	return s.RunContext(context.Background(), maxCycles)
}

// cancelCheckStride bounds how many simulated cycles may elapse
// between context-cancellation checks: frequent enough that a
// cancelled simulation returns within microseconds of wall time, rare
// enough that the per-cycle hot loop never touches the context.
const cancelCheckStride = 4096

// RunContext simulates until every admitted warp completes, maxCycles
// elapses, or ctx is cancelled, returning the merged per-block
// counters. The run loop is advance, one visited cycle at a time;
// cancellation is observed at least every cancelCheckStride loop
// iterations, so a cancelled run returns promptly with ctx.Err()
// wrapped in the error.
//
// The SM executes loads and stores against its private copy-on-write
// view of the kernel memory (see Memory), which after an error or a
// cancellation holds the stores made up to where the simulation got.
func (s *SM) RunContext(ctx context.Context, maxCycles int64) (stats.Counters, error) {
	for _, blk := range s.blocks {
		if len(blk.warps) == 0 && len(blk.pending) == 0 {
			blk.done = true
		}
	}
	if err := ctx.Err(); err != nil {
		return s.merge(), fmt.Errorf("sm %d: cancelled before cycle 0: %w", s.id, err)
	}
	sinceCheck := 0
	for {
		if sinceCheck++; sinceCheck >= cancelCheckStride {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				s.settle(s.now, s.visits-1)
				return s.merge(), fmt.Errorf("sm %d: cancelled at cycle %d: %w", s.id, s.now, err)
			}
		}
		if done, err := s.advance(maxCycles); done {
			return s.merge(), err
		}
	}
}

// advance is one iteration of the run loop: at the visited cycle s.now
// it checks the budget, steps — in block order — the blocks that are
// due (every block under cfg.Check), and moves s.now to the next
// visited cycle at which some block is due (see fastforward.go). It
// reports done when the run is over: finished, killed, deadlocked or
// past maxCycles, every block's counters settled to that cycle.
func (s *SM) advance(maxCycles int64) (done bool, err error) {
	now := s.now
	if s.budget != nil {
		// Gas metering: checked before stepping so the kill point
		// depends only on committed simulation state, which is
		// bit-identical across regimes and worker counts.
		if be := s.budgetExceeded(now); be != nil {
			s.settle(now, s.visits-1)
			return true, be
		}
	}
	allDone := true
	issuing := int64(0) // blocks issuing at now: stepped, or inside a run
	due, event := int64(math.MaxInt64), int64(math.MaxInt64)
	for _, blk := range s.blocks {
		if blk.done {
			continue
		}
		allDone = false
		switch {
		case blk.due <= now:
			blk.catchUp(now, s.visits-1-blk.visitMark)
			if issued, _ := blk.step(now); issued {
				issuing++
			}
			blk.visitMark = s.visits
		case s.cfg.Check:
			if blk.stepExcused(now) {
				issuing++
			}
			blk.visitMark = s.visits
		case blk.runLen > 0:
			issuing++
		}
		if blk.due < due {
			due = blk.due
		}
		if blk.event < event {
			event = blk.event
		}
	}
	if allDone {
		return true, nil
	}
	next := now + 1
	switch {
	case issuing > 0:
		// now+1 is visited, and so is every cycle up to the earliest due
		// one: until then each issuing block is inside a run.
		if due > next && !s.cfg.Check {
			next = s.clampJump(now, due, issuing, maxCycles)
		}
		s.visits += next - now
	case event == math.MaxInt64:
		s.settle(now+1, s.visits)
		return true, &DeadlockError{SM: s.id, Cycle: now, State: s.dumpState()}
	default:
		// Cycles before the earliest event are idle everywhere and not
		// visited.
		if event > next {
			next = event
		}
		s.visits++
	}
	s.now = next
	if next > maxCycles {
		s.settle(next, s.visits-1)
		return true, fmt.Errorf("sm %d: exceeded %d cycles", s.id, maxCycles)
	}
	return false, nil
}

// settle brings every block's counters up to cycle upTo (exclusive) on
// the way out of the run, before of whose cycles the SM visited:
// sleeping blocks owe their idle cycles, blocks in a run commit the
// retired prefix.
func (s *SM) settle(upTo, before int64) {
	for _, blk := range s.blocks {
		if !blk.done {
			blk.catchUp(upTo, before-blk.visitMark)
		}
	}
}

func (s *SM) merge() stats.Counters {
	var total stats.Counters
	for _, blk := range s.blocks {
		total.Merge(blk.counters)
	}
	return total
}

// dumpState renders a per-warp diagnostic for deadlock reports.
func (s *SM) dumpState() string {
	var b strings.Builder
	for _, blk := range s.blocks {
		fmt.Fprintf(&b, "block %d (done=%v pending=%d):\n", blk.id, blk.done, len(blk.pending))
		for _, w := range blk.warps {
			if w.exited {
				fmt.Fprintf(&b, "  warp %d: exited\n", w.ID)
				continue
			}
			fmt.Fprintf(&b, "  warp %d: pc=%d active=%v ready=%v blocked=%v stalled=%v pendingSel=%v\n",
				w.ID, w.activePC, w.active,
				w.tab.Mask(tst.Ready), w.tab.Mask(tst.Blocked), w.tab.Mask(tst.Stalled),
				w.pendingSelect)
		}
	}
	return b.String()
}
