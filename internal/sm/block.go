package sm

import (
	"math"
	"math/rand"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/tst"
)

// issueClass is the per-warp scheduling status the block's scheduler
// and the SI policy logic observe each cycle.
type issueClass uint8

const (
	classExited issueClass = iota
	classCanIssue
	classSelecting // paying the subwarp switch latency
	classNoActive  // no active subwarp: demoted, yielded, or blocked
	classFetchWait // instruction fetch miss in flight
	classScbdWait  // active subwarp blocked on a load-to-use scoreboard
)

// wbKind distinguishes the two writeback broadcast ports of Fig. 8b
// plus the RT core return path (modeled on the LSU port).
type wbKind uint8

const (
	wbLoad wbKind = iota
	wbTex
	wbTrace
)

// wbEvent is one thread's pending register writeback.
type wbEvent struct {
	at   int64
	warp *Warp
	lane int
	reg  uint8
	sbid int8
	kind wbKind
	addr uint64 // load/tex: address read at writeback time
	val  uint32 // trace: precomputed result
}

// warpSpec queues a not-yet-resident warp for a freed slot
// (persistent-thread style waves when the launch exceeds occupancy).
type warpSpec struct {
	id        int
	ctaID     int
	warpInCTA int
}

// idleSummary classifies one idle cycle for stall accounting.
type idleSummary struct {
	loadStall    bool
	loadStallDiv bool
	fetchWaiters int64
	selecting    bool // switch latency in flight, or a READY subwarp awaits select
	blocked      bool // a live warp has lanes blocked at a convergence barrier
}

// Block is one processing block: up to WarpSlotsPerBlock resident
// warps, a private L0 instruction cache, a warp scheduler, and (with SI
// enabled) the subwarp scheduler unit of Fig. 6.
type Block struct {
	id  int
	cfg config.Config
	sm  *SM

	warps   []*Warp
	pending []warpSpec
	l0i     *mem.Cache
	events  eventQueue
	rng     *rand.Rand

	lastIssued int
	policy     Policy
	counters   stats.Counters
	done       bool

	// Shared with (and owned by) the SM: cops is the program's
	// pre-decoded operation stream, read only through fetch, and ffLen
	// the per-PC fast-forward run lengths (nil in the stepped regime —
	// cfg.Compiled off or a trace recorder attached). lastPick records
	// which warp issued in the most recent step (-1 when none).
	cops     []isa.COp
	ffLen    []int32
	lastPick int

	// The block's own time (fastforward.go), all as of its last step.
	// due is the next cycle whose step can change something; until then
	// the block is excused, either quiet or — runLen > 0 — with lastPick
	// issuing the next runLen cycles of a simple run. event caches
	// nextEventTime, moved records that the step changed state other than
	// the idle counters, overflow is the TSTOverflow its failed demotes
	// counted (owed again for every visited cycle the block sits out),
	// and visitMark is SM.visits at that step.
	due, event, runLen  int64
	overflow, visitMark int64
	moved               bool

	// wakeMin is the earliest pending select completion or fetch fill,
	// folded in where one is scheduled and re-derived by a warp scan
	// (scanWakes) only after a step at or past it. exits flags an EXIT
	// that emptied a warp since the last retireExited.
	wakeMin int64
	exits   bool

	// Dirty-warp scheduling state. statuses caches each warp's issue
	// class across cycles; a warp is re-classified (the expensive
	// status() probe) only when an event that could change its class
	// touched it — writeback arrival, fetch/selection completion, its
	// own issue, SI demotion, or slot recycling — instead of re-scanning
	// every warp every cycle. dirty flags warps touched by such an
	// event; wakeAt is the cycle at which a time-bound class
	// (classSelecting, classFetchWait) must be re-evaluated. Spuriously
	// marking a warp dirty is always safe: re-classifying an unchanged
	// warp is exactly what the pre-dirty-tracking scan did every cycle.
	statuses []issueClass
	dirty    []bool
	wakeAt   []int64

	// Per-instruction scratch buffers, owned by the block and reused
	// across execute calls so the steady-state issue path never
	// allocates. Each user truncates to length zero before filling;
	// contents are dead between instructions. scratchLines dedups
	// coalesced cache lines in executeLoad (replacing a per-call map);
	// scratchGroups holds divergent-branch subgroups for
	// executeBranch/executeBrx.
	scratchLines  []lineFill
	scratchGroups []subgroup

	// rec is the optional observability recorder (cfg.Trace); nil when
	// tracing is off, so every emission site costs one nil check.
	rec *trace.Recorder

	// fetchPortFreeAt models the block's single L0I fill port: one line
	// transfer at a time, so interleaved fetch streams that miss the L0
	// queue up — the second-order fetch cost of frequent subwarp
	// switching the paper identifies (Section VI, first limiter).
	fetchPortFreeAt int64
}

func newBlock(id int, cfg config.Config, owner *SM) *Block {
	return &Block{
		id:       id,
		cfg:      cfg,
		sm:       owner,
		l0i:      mem.NewCache("L0I", cfg.L0InstrBytes, 4, cfg.CacheLineBytes),
		rng:      rand.New(rand.NewSource(int64(owner.id*1000 + id + 1))),
		statuses: make([]issueClass, 0, cfg.WarpSlotsPerBlock),
		dirty:    make([]bool, 0, cfg.WarpSlotsPerBlock),
		wakeAt:   make([]int64, 0, cfg.WarpSlotsPerBlock),
		rec:      cfg.Trace,
		cops:     owner.cops,
		ffLen:    owner.ffLen,
		lastPick: -1,
		wakeMin:  math.MaxInt64,
		policy:   policyFor(cfg.SchedPolicy),
	}
}

// markDirty flags a warp slot for re-classification on the next step.
func (b *Block) markDirty(slot int) {
	if slot < len(b.dirty) {
		b.dirty[slot] = true
	}
}

// emit forwards one pipeline event to the recorder. Callers must have
// checked b.rec != nil.
func (b *Block) emit(cycle int64, w *Warp, pc int, mask bits.Mask, kind trace.Kind, arg int) {
	b.rec.Emit(cycle, b.sm.id, b.id, int32(w.ID), int32(pc), mask, kind, int32(arg))
}

// admit places a warp spec into a slot (up to the resident limit) or
// the pending queue.
func (b *Block) admit(spec warpSpec, resident int) {
	if len(b.warps) < resident {
		w := b.materialize(spec)
		w.slot = len(b.warps)
		b.warps = append(b.warps, w)
		b.statuses = append(b.statuses, classCanIssue)
		b.dirty = append(b.dirty, true)
		b.wakeAt = append(b.wakeAt, 0)
		return
	}
	b.pending = append(b.pending, spec)
}

func (b *Block) materialize(spec warpSpec) *Warp {
	return newWarp(spec.id, spec.ctaID, spec.warpInCTA, b.sm.kernel.CTASize(),
		b.cfg.ScoreboardsPerWarp, b.cfg.EffectiveMaxSubwarps())
}

// Done reports whether every admitted warp has run to completion.
func (b *Block) Done() bool { return b.done }

// Counters returns the block's accumulated statistics.
func (b *Block) Counters() stats.Counters { return b.counters }

func (b *Block) liveWarps() int {
	n := 0
	for _, w := range b.warps {
		if !w.exited {
			n++
		}
	}
	return n
}

// step advances the block by one cycle. It returns whether an
// instruction issued and the earliest future time at which the block's
// state can change on its own (math.MaxInt64 when nothing is pending).
func (b *Block) step(now int64) (issued bool, next int64) {
	if b.done {
		return false, math.MaxInt64
	}
	b.lastPick = -1
	b.moved = false
	overflow := b.counters.TSTOverflow

	b.drainEvents(now)
	if b.wakeMin <= now {
		b.completeSelections(now)
	}

	// Per-warp status scan; with SI, demote scoreboard-stalled subwarps
	// (subwarp-stall is combinational, applying to every stalled warp).
	// Only dirty warps — and time-bound classes whose wake cycle arrived
	// — pay the full status() re-classification; everything else keeps
	// its cached class, which by construction cannot have changed. The
	// demote attempt itself re-runs every stepped cycle for every
	// scoreboard-stalled warp (its outcome depends on cross-warp TST/
	// slot state, and each failed attempt counts a TSTOverflow), exactly
	// as the full re-scan did.
	for i, w := range b.warps {
		st := b.statuses[i]
		if b.dirty[i] ||
			((st == classSelecting || st == classFetchWait) && now >= b.wakeAt[i]) {
			b.dirty[i] = false
			b.moved = true
			st = b.status(w, now)
			switch st {
			case classSelecting:
				b.wakeAt[i] = w.selectDoneAt
			case classFetchWait:
				b.wakeAt[i] = w.fetchReadyAt
			}
		}
		if st == classScbdWait && b.cfg.SI.Enabled {
			if b.demote(w, now) {
				st = classNoActive
				b.moved = true
			}
		}
		b.statuses[i] = st
	}
	b.overflow = b.counters.TSTOverflow - overflow

	if b.cfg.SI.Enabled {
		b.maybeTriggerSelect(now)
	}

	issued = b.issue(now)
	if issued {
		b.counters.IssueCycles++
	} else {
		b.addIdle(b.classify(), 1)
	}

	if b.rec.Sampling() {
		occ, subs, fill := b.sampleState()
		b.rec.Sample(now, occ, subs, fill, issued)
	}

	if b.exits {
		b.exits = false
		b.retireExited()
	}
	b.counters.Cycles = now + 1
	if b.wakeMin <= now {
		b.wakeMin = b.scanWakes()
	}
	b.plan(now, issued)
	return issued, b.event
}

// sampleState gathers the block's time-series sample: live resident
// warps, live subwarps across them, and occupied TST (stalled) entries.
// It walks every warp's TST, so step and catchUp call it only when the
// recorder has a series to feed (Recorder.Sampling, nil-safe).
func (b *Block) sampleState() (occ, subs, fill int) {
	for _, w := range b.warps {
		if w.exited {
			continue
		}
		occ++
		subs += w.tab.LiveSubwarps()
		fill += w.tab.StalledSubwarps()
	}
	return occ, subs, fill
}

// drainEvents applies all writebacks due at or before now.
func (b *Block) drainEvents(now int64) {
	for len(b.events) > 0 && b.events[0].at <= now {
		b.moved = true
		b.applyWriteback(b.events.pop(), now)
	}
}

// applyWriteback writes the register, releases the scoreboard, and
// broadcasts to the TST (subwarp-wakeup, Fig. 8b).
func (b *Block) applyWriteback(ev wbEvent, now int64) {
	w := ev.warp
	b.markDirty(w.slot)
	val := ev.val
	if ev.kind != wbTrace {
		val = b.sm.mem.Load(ev.addr)
	}
	w.regs[ev.lane][ev.reg] = val
	w.sb.Dec(ev.lane, int(ev.sbid))
	woke := w.tab.Writeback(ev.lane, int(ev.sbid))
	if woke {
		b.counters.SubwarpWakeups++
	}
	if b.rec != nil {
		lane := bits.LaneMask(ev.lane)
		pc := w.pcs[ev.lane]
		b.emit(now, w, pc, lane, trace.KindWriteback, int(ev.sbid))
		if w.sb.LaneCount(ev.lane, int(ev.sbid)) == 0 {
			b.emit(now, w, pc, lane, trace.KindScbdRelease, int(ev.sbid))
		}
		if woke {
			b.emit(now, w, pc, lane, trace.KindWakeup, int(ev.sbid))
		}
	}
}

// completeSelections finishes subwarp-select operations whose switch
// latency elapsed, activating the chosen READY subwarp.
func (b *Block) completeSelections(now int64) {
	for _, w := range b.warps {
		if !w.pendingSelect || w.selectDoneAt > now {
			continue
		}
		w.pendingSelect = false
		b.moved = true
		b.markDirty(w.slot)
		if sub, ok := w.tab.Select(); ok {
			w.activate(sub.Mask, sub.PC)
			b.counters.SubwarpSelects++
			b.counters.SelectBusy += int64(b.cfg.SI.SwitchLatency)
			if b.rec != nil {
				b.emit(now, w, sub.PC, sub.Mask, trace.KindSelect, b.cfg.SI.SwitchLatency)
			}
		}
	}
}

// status computes a warp's scheduling class, performing the
// instruction-fetch probe (L0I, then the SM-shared L1I, then the
// fixed-latency memory stub) as a side effect when the active PC moved
// to a new cache line.
func (b *Block) status(w *Warp, now int64) issueClass {
	if w.exited {
		return classExited
	}
	if w.pendingSelect {
		return classSelecting
	}
	if w.active.Empty() {
		return classNoActive
	}

	if w.fetchReadyAt > now {
		return classFetchWait
	}
	if w.fetchingLine != math.MaxUint64 {
		w.fetchedLine = w.fetchingLine
		w.fetchingLine = math.MaxUint64
	}
	line := uint64(w.activePC*b.cfg.InstrBytes) / uint64(b.cfg.CacheLineBytes)
	if line != w.fetchedLine {
		addr := line * uint64(b.cfg.CacheLineBytes)
		b.counters.L0IAccesses++
		readyAt, hit := b.l0i.Access(addr, now, func(at int64) int64 {
			b.counters.L1IAccesses++
			r, l1iHit := b.sm.l1i.Access(addr, at, func(at2 int64) int64 {
				return at2 + int64(b.cfg.L1IMissPenalty)
			})
			if !l1iHit {
				b.counters.L1IMisses++
			}
			return r + int64(b.cfg.L0MissPenalty)
		})
		if !hit {
			b.counters.L0IMisses++
			port := b.fetchPortFreeAt
			if port < now {
				port = now
			}
			b.fetchPortFreeAt = port + int64(b.cfg.L0MissPenalty)
			if readyAt < b.fetchPortFreeAt {
				readyAt = b.fetchPortFreeAt
			}
		}
		if readyAt > now {
			if b.rec != nil {
				b.emit(now, w, w.activePC, w.active, trace.KindFetchMiss, int(readyAt-now))
			}
			w.fetchReadyAt = readyAt
			w.fetchingLine = line
			b.wakeMin = min(b.wakeMin, readyAt)
			return classFetchWait
		}
		w.fetchedLine = line
	}

	// Load-to-use scoreboard wait. The baseline observes the warp-wide
	// aliased view; SI reads the active subwarp's replicated counters.
	if req := b.fetch(w.activePC).ReqScbd; req != isa.NoScoreboard {
		mask := w.active
		if !b.cfg.SI.Enabled {
			mask = w.tab.Live()
		}
		if !w.sb.Ready(mask, int(req)) {
			return classScbdWait
		}
	}
	return classCanIssue
}

// fetch returns the pre-decoded operation at pc. It is the single
// fetch point — status, demote, and execute all read the stream through
// it — so control flow that escapes the program (isa.Program.Validate
// accepts a predicated BRA as the last instruction, whose not-taken
// lanes fall off the end) dies with one named diagnostic in either
// regime.
func (b *Block) fetch(pc int) *isa.COp {
	if uint(pc) >= uint(len(b.cops)) {
		b.sm.prog.At(pc) // out of range: panics naming program, PC, and length
	}
	return &b.cops[pc]
}

// demote performs subwarp-stall: the active subwarp records its
// blocking scoreboard in the TST and transitions to STALLED, freeing
// the warp's scheduling slot for other subwarps. Returns false on TST
// overflow (Fig. 15's limited-entry configurations).
func (b *Block) demote(w *Warp, now int64) bool {
	// Demotion exists to free the warp's slot for other subwarps; when
	// none is READY there is nothing to switch to, and staying put lets
	// the warp resume directly on writeback instead of waiting for a
	// policy-gated subwarp-select.
	if w.tab.Mask(tst.Ready).Empty() {
		return false
	}
	// Under DWS, every concurrently parked (stalled) subwarp occupies
	// one of the block's free warp slots; with no free slot the split
	// cannot happen and the warp serializes like the baseline — the
	// paper's Section VII-B contrast with SI.
	if b.cfg.SI.DWS && b.parkedSubwarps() >= b.freeSlots() {
		b.counters.TSTOverflow++
		return false
	}
	sbid := int(b.fetch(w.activePC).ReqScbd)
	ok := w.tab.Stall(w.active, sbid, func(lane int) int {
		return w.sb.LaneCount(lane, sbid)
	})
	if !ok {
		b.counters.TSTOverflow++
		return false
	}
	b.counters.SubwarpStalls++
	if b.rec != nil {
		b.emit(now, w, w.activePC, w.active, trace.KindStall, sbid)
	}
	w.dropActive()
	return true
}

// selectCandidate applies the Section III-C3 policy to the block's
// statuses: when the fraction of stalled warps among live warps
// satisfies the trigger, it returns the lowest-numbered stalled warp
// that has a READY subwarp and no select in flight, else -1.
func (b *Block) selectCandidate() int {
	stalled, live := 0, 0
	for i, w := range b.warps {
		if w.exited {
			continue
		}
		live++
		if b.statuses[i] == classScbdWait || b.statuses[i] == classNoActive {
			stalled++
		}
	}
	if !b.cfg.SI.Trigger.Satisfied(stalled, live) {
		return -1
	}
	for i, w := range b.warps {
		if b.statuses[i] == classNoActive && !w.pendingSelect && !w.tab.Mask(tst.Ready).Empty() {
			return i
		}
	}
	return -1
}

// maybeTriggerSelect initiates subwarp-select on the policy's
// candidate. One initiation per block per visited cycle.
func (b *Block) maybeTriggerSelect(now int64) {
	i := b.selectCandidate()
	if i < 0 {
		return
	}
	w := b.warps[i]
	b.startSelect(w, now)
	b.statuses[i] = classSelecting
	b.wakeAt[i] = w.selectDoneAt
	b.moved = true
}

// startSelect begins a subwarp-select on w, due after the switch
// latency.
func (b *Block) startSelect(w *Warp, now int64) {
	w.pendingSelect = true
	w.selectDoneAt = now + int64(b.cfg.SI.SwitchLatency)
	b.wakeMin = min(b.wakeMin, w.selectDoneAt)
	if b.rec != nil {
		b.emit(now, w, -1, 0, trace.KindSelectStart, b.cfg.SI.SwitchLatency)
	}
}

// issue asks the scheduler policy for one ready warp (greedy on the
// last-issued warp, policy-specific fallback on a stall) and executes
// its next instruction.
func (b *Block) issue(now int64) bool {
	if len(b.warps) == 0 {
		return false
	}
	pick := b.policy.Pick(b)
	if pick < 0 {
		return false
	}
	b.lastIssued = pick
	b.lastPick = pick
	w := b.warps[pick]
	b.execute(w, now)
	// Executing changed the warp's own state (PC, masks, scoreboards);
	// re-classify it next cycle. No other warp's class can change from
	// this issue alone.
	b.dirty[pick] = true
	w.divKnown = false
	return true
}

// classify summarizes why the block is idle this cycle, mirroring the
// paper's metric: an exposed load-to-use stall is a cycle where no warp
// can issue and at least one live warp waits on an outstanding
// long-latency operation; it counts as divergent when such a warp is
// diverged.
func (b *Block) classify() idleSummary {
	var s idleSummary
	for i, w := range b.warps {
		switch b.statuses[i] {
		case classScbdWait:
			s.loadStall = true
			if w.divergedCached(b.cfg.Check) {
				s.loadStallDiv = true
			}
		case classNoActive, classSelecting:
			if b.statuses[i] == classSelecting {
				s.selecting = true
			}
			if !w.tab.Mask(tst.Stalled).Empty() {
				s.loadStall = true
				if w.divergedCached(b.cfg.Check) {
					s.loadStallDiv = true
				}
			} else if !w.tab.Mask(tst.Ready).Empty() {
				// A READY subwarp waits for the select trigger policy to
				// fire: scheduler-induced idleness, charged to the
				// switch bucket.
				s.selecting = true
			}
			if !w.tab.Mask(tst.Blocked).Empty() {
				s.blocked = true
			}
		case classFetchWait:
			s.fetchWaiters++
		}
	}
	return s
}

// addIdle charges n idle cycles with the given classification. The
// Exposed*/BarrierStallCycles counters keep the paper's Fig. 3 metric;
// the Idle*Cycles buckets are the finer, mutually exclusive
// attribution (load > fetch > switch > barrier > no-warp) that
// stats.StallAttribution reports — they always sum to IdleCycles.
func (b *Block) addIdle(s idleSummary, n int64) {
	b.counters.IdleCycles += n
	b.counters.FetchStallCycles += s.fetchWaiters * n
	switch {
	case s.loadStall:
		b.counters.ExposedLoadStalls += n
		if s.loadStallDiv {
			b.counters.ExposedLoadStallsDivergent += n
		}
	case s.fetchWaiters > 0:
		b.counters.ExposedFetchStalls += n
	default:
		b.counters.BarrierStallCycles += n
	}
	switch {
	case s.loadStall:
		b.counters.IdleLoadCycles += n
	case s.fetchWaiters > 0:
		b.counters.IdleFetchCycles += n
	case s.selecting:
		b.counters.IdleSwitchCycles += n
	case s.blocked:
		b.counters.IdleBarrierCycles += n
	default:
		b.counters.IdleNoWarpCycles += n
	}
}

// retireExited recycles slots of exited warps for queued warps and
// marks the block done when nothing remains.
func (b *Block) retireExited() {
	for i, w := range b.warps {
		if w.exited && len(b.pending) > 0 {
			nw := b.materialize(b.pending[0])
			nw.slot = i
			b.warps[i] = nw
			b.pending = b.pending[1:]
			b.dirty[i] = true
		}
	}
	if len(b.pending) == 0 && b.liveWarps() == 0 {
		b.done = true
	}
}

// parkedSubwarps counts stalled subwarp groups across all resident
// warps — the warp-slot footprint of DWS splits.
func (b *Block) parkedSubwarps() int {
	n := 0
	for _, w := range b.warps {
		if !w.exited {
			n += w.tab.StalledSubwarps()
		}
	}
	return n
}

// freeSlots is the number of unoccupied warp slots in the block.
func (b *Block) freeSlots() int {
	free := b.cfg.WarpSlotsPerBlock - b.liveWarps()
	if free < 0 {
		free = 0
	}
	return free
}

// nextEventTime returns the earliest future time the block's state can
// change without issuing: a writeback, a select completion, or an
// instruction fetch fill.
func (b *Block) nextEventTime() int64 {
	if len(b.events) > 0 {
		return min(b.events[0].at, b.wakeMin)
	}
	return b.wakeMin
}

// scanWakes derives wakeMin from the warps.
func (b *Block) scanWakes() int64 {
	next := int64(math.MaxInt64)
	for _, w := range b.warps {
		if w.exited {
			continue
		}
		if w.pendingSelect && w.selectDoneAt < next {
			next = w.selectDoneAt
		}
		if w.fetchingLine != math.MaxUint64 && w.fetchReadyAt < next {
			next = w.fetchReadyAt
		}
	}
	return next
}
