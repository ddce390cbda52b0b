// Package tst implements the Thread Status Table and the per-thread
// state machine of Figures 7 and 8.
//
// The table tracks, per thread: its scheduling state; and — while
// STALLED — the ID and outstanding count of the count-based scoreboard
// it stalled on. Writeback broadcasts decrement matching recorded
// counts (Fig. 8b) and wake threads whose counts reach zero
// (subwarp-wakeup). Selection logic groups READY threads into
// PC-aligned subwarps and rotates among them (subwarp-select).
//
// The table is sized by a maximum number of concurrently demoted
// subwarps (NTST in Section III-C1): demotions beyond capacity are
// rejected and the requesting subwarp stays put, modeling the smaller
// TST configurations of the Fig. 15 sensitivity study.
package tst

import (
	"fmt"

	"subwarpsim/internal/bits"
)

// State is the scheduling status of one thread (Fig. 7).
type State uint8

const (
	// Inactive: before program entry or after thread exit.
	Inactive State = iota
	// Active: the thread belongs to the warp's currently executing
	// subwarp.
	Active
	// Ready: eligible for selection (lost a divergent-branch election,
	// was woken after a stall, or yielded).
	Ready
	// Blocked: waiting at a convergence barrier (unsuccessful BSYNC).
	Blocked
	// Stalled: demoted after a load-to-use stall; waiting for its
	// recorded scoreboard to count down (SI-only state).
	Stalled

	numStates = int(Stalled) + 1
)

func (s State) String() string {
	switch s {
	case Inactive:
		return "INACTIVE"
	case Active:
		return "ACTIVE"
	case Ready:
		return "READY"
	case Blocked:
		return "BLOCKED"
	case Stalled:
		return "STALLED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Table is one warp's thread status table. PCs live with the owning
// warp; the table reads them through the pointer supplied at creation
// so that grouping and selection see current values.
type Table struct {
	pcs         *[bits.WarpSize]int
	maxSubwarps int

	state   [bits.WarpSize]State
	scbdID  [bits.WarpSize]int8
	scbdCnt [bits.WarpSize]uint8

	// masks caches, per state, the set of lanes currently in that
	// state. Every state write goes through setState to keep the cache
	// consistent, making Mask and Live O(1) on the scheduler's
	// per-cycle path instead of 32-iteration scans.
	masks [numStates]bits.Mask

	lastSelectedPC int // round-robin pointer for selection
}

// New creates a table over the given per-thread PC array, supporting at
// most maxSubwarps concurrently demoted subwarps (1..32).
func New(pcs *[bits.WarpSize]int, maxSubwarps int) *Table {
	if maxSubwarps < 1 {
		maxSubwarps = 1
	}
	if maxSubwarps > bits.WarpSize {
		maxSubwarps = bits.WarpSize
	}
	t := &Table{pcs: pcs, maxSubwarps: maxSubwarps, lastSelectedPC: -1}
	for i := range t.scbdID {
		t.scbdID[i] = -1
	}
	t.masks[Inactive] = bits.FullMask
	return t
}

// MaxSubwarps returns the demotion capacity.
func (t *Table) MaxSubwarps() int { return t.maxSubwarps }

// State returns the state of one lane.
func (t *Table) State(lane int) State { return t.state[lane] }

// SetState transitions one lane; transitions that leave Stalled clear
// the recorded scoreboard fields.
func (t *Table) SetState(lane int, s State) {
	if t.state[lane] == Stalled && s != Stalled {
		t.scbdID[lane] = -1
		t.scbdCnt[lane] = 0
	}
	t.setState(lane, s)
}

// setState moves one lane between states, keeping the cached per-state
// masks consistent. All state writes must go through here.
func (t *Table) setState(lane int, s State) {
	old := t.state[lane]
	if old == s {
		return
	}
	t.masks[old] = t.masks[old].Clear(lane)
	t.masks[s] = t.masks[s].Set(lane)
	t.state[lane] = s
}

// Mask returns the lanes currently in state s.
func (t *Table) Mask(s State) bits.Mask { return t.masks[s] }

// Live returns the lanes not Inactive.
func (t *Table) Live() bits.Mask {
	return bits.FullMask.Minus(t.masks[Inactive])
}

// LiveSubwarps returns the number of distinct PCs among live lanes:
// 0 for an exited warp, 1 when convergent, more when diverged.
func (t *Table) LiveSubwarps() int {
	return t.distinctPCs(t.Live())
}

// DivergedLive reports whether live lanes span more than one distinct
// PC, i.e. LiveSubwarps() > 1 without counting: it exits on the first
// PC mismatch. The scheduler's idle classification reads it once per
// stalled warp per issue of that warp and remembers the answer.
func (t *Table) DivergedLive() bool {
	m := t.Live()
	if m.Empty() {
		return false
	}
	first := t.pcs[m.Lowest()]
	for it := m.DropLowest(); !it.Empty(); it = it.DropLowest() {
		if t.pcs[it.Lowest()] != first {
			return true
		}
	}
	return false
}

func (t *Table) distinctPCs(m bits.Mask) int {
	// A fixed-size stack array instead of an appended slice: this runs
	// inside the scheduler's per-cycle idle classification, which must
	// stay allocation-free.
	var seen [bits.WarpSize]int
	n := 0
	for it := m; !it.Empty(); it = it.DropLowest() {
		pc := t.pcs[it.Lowest()]
		dup := false
		for _, p := range seen[:n] {
			if p == pc {
				dup = true
				break
			}
		}
		if !dup {
			seen[n] = pc
			n++
		}
	}
	return n
}

// StalledSubwarps returns how many distinct PC groups occupy TST
// demotion entries.
func (t *Table) StalledSubwarps() int {
	return t.distinctPCs(t.Mask(Stalled))
}

// Stall performs the subwarp-stall transition: every lane in mask moves
// from Active to Stalled, recording scoreboard sbid and the lane's
// outstanding count supplied by laneCount. Lanes whose count is already
// zero (their data returned while others' is pending) go straight to
// Ready.
//
// Stall returns false without any transition when the table has no free
// demotion entry (TST overflow): the caller leaves the subwarp Active
// and the warp simply waits, as the baseline would.
func (t *Table) Stall(mask bits.Mask, sbid int, laneCount func(lane int) int) bool {
	if mask.Empty() {
		return false
	}
	// A table with K entries supports K concurrently overlapping
	// subwarps: K-1 demoted into entries plus the one in the active
	// slot. The K-th stall is rejected, so that subwarp waits in place
	// (like the baseline) instead of freeing the slot for yet another
	// load stream.
	if t.StalledSubwarps() >= t.maxSubwarps-1 {
		return false
	}
	for it := mask; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		if t.state[lane] != Active {
			panic(fmt.Sprintf("tst: subwarp-stall of lane %d in state %v", lane, t.state[lane]))
		}
		cnt := laneCount(lane)
		if cnt <= 0 {
			t.setState(lane, Ready)
			continue
		}
		if cnt > 255 {
			cnt = 255
		}
		t.setState(lane, Stalled)
		t.scbdID[lane] = int8(sbid)
		t.scbdCnt[lane] = uint8(cnt)
	}
	return true
}

// Writeback is the subwarp-wakeup port of Fig. 8b: the writeback of a
// scoreboard-protected operand for one lane broadcasts its scoreboard
// ID; if the lane is Stalled on that ID its recorded count decrements,
// and at zero the lane wakes to Ready. It returns true when the lane
// woke.
func (t *Table) Writeback(lane, sbid int) bool {
	if t.state[lane] != Stalled || t.scbdID[lane] != int8(sbid) {
		return false
	}
	if t.scbdCnt[lane] > 0 {
		t.scbdCnt[lane]--
	}
	if t.scbdCnt[lane] == 0 {
		t.SetState(lane, Ready)
		return true
	}
	return false
}

// Yield performs the subwarp-yield transition: Active lanes in mask
// move to Ready, eagerly relinquishing the scheduling slot. The
// selection rotor advances to the yielded subwarp's current PC so the
// next Select prefers a different READY subwarp.
func (t *Table) Yield(mask bits.Mask) {
	for it := mask; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		if t.state[lane] != Active {
			panic(fmt.Sprintf("tst: subwarp-yield of lane %d in state %v", lane, t.state[lane]))
		}
		t.setState(lane, Ready)
	}
	if lane := mask.Lowest(); lane >= 0 {
		t.lastSelectedPC = t.pcs[lane]
	}
}

// ReadySubwarp describes one selectable PC-aligned group.
type ReadySubwarp struct {
	PC   int
	Mask bits.Mask
}

// Select performs subwarp-select: it picks the next Ready subwarp in
// round-robin PC order after the previously selected PC, transitions
// its lanes to Active, and returns it. ok is false when no lane is
// Ready.
//
// The pick — the smallest Ready PC strictly greater than the rotor,
// falling back to the smallest Ready PC — is computed directly from
// the lane masks, so the subwarp-switch path never allocates.
func (t *Table) Select() (ReadySubwarp, bool) {
	ready := t.masks[Ready]
	if ready.Empty() {
		return ReadySubwarp{}, false
	}
	minPC, nextPC := -1, -1
	for it := ready; !it.Empty(); it = it.DropLowest() {
		pc := t.pcs[it.Lowest()]
		if minPC < 0 || pc < minPC {
			minPC = pc
		}
		if pc > t.lastSelectedPC && (nextPC < 0 || pc < nextPC) {
			nextPC = pc
		}
	}
	pickPC := minPC
	if nextPC >= 0 {
		pickPC = nextPC
	}
	var m bits.Mask
	for it := ready; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		if t.pcs[lane] == pickPC {
			m = m.Set(lane)
			t.SetState(lane, Active)
		}
	}
	t.lastSelectedPC = pickPC
	return ReadySubwarp{PC: pickPC, Mask: m}, true
}

// NoteActivated records which subwarp (by PC) currently executes, so
// that Select's round-robin prefers a *different* READY subwarp next —
// in particular, a subwarp that just yielded is least-preferred until
// the rotation returns to it.
func (t *Table) NoteActivated(pc int) { t.lastSelectedPC = pc }

// ActivateAll is program entry: every lane in mask becomes Active.
func (t *Table) ActivateAll(mask bits.Mask) {
	for it := mask; !it.Empty(); it = it.DropLowest() {
		t.setState(it.Lowest(), Active)
	}
}

// Exit transitions lanes to Inactive (thread exit).
func (t *Table) Exit(mask bits.Mask) {
	for it := mask; !it.Empty(); it = it.DropLowest() {
		t.SetState(it.Lowest(), Inactive)
	}
}

// Block transitions lanes from Active to Blocked (unsuccessful BSYNC).
func (t *Table) Block(mask bits.Mask) {
	for it := mask; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		if t.state[lane] != Active {
			panic(fmt.Sprintf("tst: block of lane %d in state %v", lane, t.state[lane]))
		}
		t.setState(lane, Blocked)
	}
}

// Release transitions Blocked lanes to Active (barrier release).
func (t *Table) Release(mask bits.Mask) {
	for it := mask; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		if t.state[lane] != Blocked {
			panic(fmt.Sprintf("tst: release of lane %d in state %v", lane, t.state[lane]))
		}
		t.setState(lane, Active)
	}
}
