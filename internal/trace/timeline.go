package trace

import (
	"fmt"
	"sort"
	"strings"

	"subwarpsim/internal/bits"
)

// Timeline state glyphs, one per TST scheduling state:
// A=active, R=ready, S=stalled, B=blocked, .=inactive/exited,
// space=not yet launched.
const (
	glyphUnborn   = ' '
	glyphActive   = 'A'
	glyphReady    = 'R'
	glyphStalled  = 'S'
	glyphBlocked  = 'B'
	glyphInactive = '.'
)

// TimelineOptions configures ASCIITimeline rendering.
type TimelineOptions struct {
	// Width is the number of time columns (default 100).
	Width int
	// Warps restricts rendering to these global warp IDs; nil renders
	// every warp seen in the stream (capped at MaxWarps).
	Warps []int
	// MaxWarps caps the warp count when Warps is nil (default 8).
	MaxWarps int
}

// laneChange is one state transition of a single lane.
type laneChange struct {
	cycle int64
	glyph byte
}

// ASCIITimeline renders the recorded stream as a compressed per-warp
// subwarp-state chart, generalizing the paper's Fig. 10: lanes with
// identical state histories collapse into one row, and time is bucketed
// into Width columns.
func (r *Recorder) ASCIITimeline(opt TimelineOptions) string {
	if opt.Width <= 0 {
		opt.Width = 100
	}
	if opt.MaxWarps <= 0 {
		opt.MaxWarps = 8
	}

	// Reconstruct per-warp, per-lane state-change tracks.
	tracks := map[int32]*[bits.WarpSize][]laneChange{}
	lastCycle := int64(1)
	mark := func(warp int32, mask bits.Mask, cycle int64, glyph byte) {
		tr, ok := tracks[warp]
		if !ok {
			tr = &[bits.WarpSize][]laneChange{}
			tracks[warp] = tr
		}
		mask.ForEach(func(lane int) {
			seq := tr[lane]
			if n := len(seq); n > 0 && seq[n-1].cycle == cycle {
				seq[n-1].glyph = glyph
			} else if n == 0 || seq[n-1].glyph != glyph {
				tr[lane] = append(seq, laneChange{cycle, glyph})
			}
		})
	}
	r.each(func(ev *Event) {
		lastCycle = max(lastCycle, ev.Cycle+1)
		switch ev.Kind {
		case KindIssue, KindActivate, KindSelect, KindReconverge:
			mark(ev.Warp, ev.Mask, ev.Cycle, glyphActive)
		case KindStall:
			mark(ev.Warp, ev.Mask, ev.Cycle, glyphStalled)
		case KindWakeup, KindYield, KindDivergeReady:
			mark(ev.Warp, ev.Mask, ev.Cycle, glyphReady)
		case KindBarrierBlock:
			mark(ev.Warp, ev.Mask, ev.Cycle, glyphBlocked)
		case KindExit:
			mark(ev.Warp, ev.Mask, ev.Cycle, glyphInactive)
		}
	})

	warps := opt.Warps
	if warps == nil {
		for w := range tracks {
			warps = append(warps, int(w))
		}
		sort.Ints(warps)
		if len(warps) > opt.MaxWarps {
			warps = warps[:opt.MaxWarps]
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "subwarp state timeline (%d cycles, %d cycles/column)\n",
		lastCycle, (lastCycle+int64(opt.Width)-1)/int64(opt.Width))
	b.WriteString("A=active R=ready S=stalled B=blocked .=exited\n")
	for _, wid := range warps {
		tr, ok := tracks[int32(wid)]
		if !ok {
			continue
		}
		// Group lanes with identical histories into one row each.
		type row struct {
			lanes bits.Mask
			seq   []laneChange
		}
		var rows []row
	lanes:
		for lane := 0; lane < bits.WarpSize; lane++ {
			seq := tr[lane]
			if len(seq) == 0 {
				continue
			}
			for i := range rows {
				if sameHistory(rows[i].seq, seq) {
					rows[i].lanes = rows[i].lanes.Set(lane)
					continue lanes
				}
			}
			rows = append(rows, row{lanes: bits.LaneMask(lane), seq: seq})
		}
		for _, rw := range rows {
			fmt.Fprintf(&b, "w%-3d %-12s ", wid, laneRanges(rw.lanes))
			for col := 0; col < opt.Width; col++ {
				at := int64(col) * lastCycle / int64(opt.Width)
				b.WriteByte(glyphAt(rw.seq, at))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// glyphAt returns the state glyph in effect at the given cycle.
func glyphAt(seq []laneChange, cycle int64) byte {
	g := byte(glyphUnborn)
	for _, ch := range seq {
		if ch.cycle > cycle {
			break
		}
		g = ch.glyph
	}
	return g
}

func sameHistory(a, b []laneChange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// laneRanges renders a mask as compact lane ranges, e.g. "0,2-5,31".
func laneRanges(m bits.Mask) string {
	lanes := m.Lanes()
	if len(lanes) == 0 {
		return "-"
	}
	var parts []string
	start, prev := lanes[0], lanes[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, l := range lanes[1:] {
		if l == prev+1 {
			prev = l
			continue
		}
		flush()
		start, prev = l, l
	}
	flush()
	return strings.Join(parts, ",")
}
