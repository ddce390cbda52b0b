// Package scoreboard implements the count-based scoreboards of
// Section III-C: a counter per scoreboard ID incremented when a guarded
// variable-latency operation issues and decremented when it writes
// back. A dependent consumer blocks until its required scoreboard
// counts down to zero.
//
// The baseline architecture keeps NSB warp-wide counters; Subwarp
// Interleaving replicates them per thread so that concurrent subwarps
// do not alias each other's updates. This package always stores
// per-thread counts; the observation granularity is chosen by the mask
// passed to Count/Ready — the full warp mask reproduces the baseline's
// warp-wide aliasing, an active-subwarp mask gives SI's replicated
// view.
package scoreboard

import (
	"fmt"

	"subwarpsim/internal/bits"
)

// MaxScoreboards bounds scoreboard IDs (s = log2 bits of TST storage).
const MaxScoreboards = 16

// CountBits is the width t of one per-thread counter; counts saturate
// rather than wrap, so a saturated counter conservatively blocks.
const CountBits = 6

// maxCount is the saturation value for a CountBits-wide counter.
const maxCount = 1<<CountBits - 1

// File is one warp's scoreboard state: nsb counters per thread.
type File struct {
	nsb    int
	counts [bits.WarpSize][MaxScoreboards]uint8
}

// NewFile creates a scoreboard file with nsb counters per thread.
// It panics if nsb is outside (0, MaxScoreboards].
func NewFile(nsb int) *File {
	if nsb <= 0 || nsb > MaxScoreboards {
		panic(fmt.Sprintf("scoreboard: nsb %d out of range", nsb))
	}
	return &File{nsb: nsb}
}

// NSB returns the number of counters per thread.
func (f *File) NSB() int { return f.nsb }

func (f *File) check(id int) {
	if id < 0 || id >= f.nsb {
		panic(fmt.Sprintf("scoreboard: id %d out of range (nsb=%d)", id, f.nsb))
	}
}

// Inc increments counter id for every lane in mask (issue of a guarded
// operation by those threads). Counters saturate at the maximum value.
func (f *File) Inc(mask bits.Mask, id int) {
	f.check(id)
	for it := mask; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		if f.counts[lane][id] < maxCount {
			f.counts[lane][id]++
		}
	}
}

// Dec decrements counter id for the given lane (writeback of that
// thread's guarded operand). Decrementing a zero counter panics: it
// indicates a writeback without a matching issue, a simulator bug.
func (f *File) Dec(lane, id int) {
	f.check(id)
	if f.counts[lane][id] == 0 {
		panic(fmt.Sprintf("scoreboard: underflow lane %d sb%d", lane, id))
	}
	f.counts[lane][id]--
}

// LaneCount returns the counter value for a single lane.
func (f *File) LaneCount(lane, id int) int {
	f.check(id)
	return int(f.counts[lane][id])
}

// Count sums counter id across all lanes in mask. Passing the warp's
// full live mask gives the baseline's warp-wide view; passing a
// subwarp's mask gives SI's per-subwarp replicated view.
func (f *File) Count(mask bits.Mask, id int) int {
	f.check(id)
	total := 0
	for it := mask; !it.Empty(); it = it.DropLowest() {
		total += int(f.counts[it.Lowest()][id])
	}
	return total
}

// Ready reports whether counter id reads zero across every lane in
// mask, i.e. a consumer with &req=id from those threads may issue.
func (f *File) Ready(mask bits.Mask, id int) bool {
	f.check(id)
	for it := mask; !it.Empty(); it = it.DropLowest() {
		if f.counts[it.Lowest()][id] != 0 {
			return false
		}
	}
	return true
}

// Outstanding reports whether any counter of any lane in mask is
// non-zero (used to detect pending long-latency operations).
func (f *File) Outstanding(mask bits.Mask) bool {
	for it := mask; !it.Empty(); it = it.DropLowest() {
		lane := it.Lowest()
		for id := 0; id < f.nsb; id++ {
			if f.counts[lane][id] != 0 {
				return true
			}
		}
	}
	return false
}
