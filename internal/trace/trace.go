// Package trace is the simulator's structured observability layer: a
// cycle-stamped event stream emitted from the SM pipeline, plus the
// derived products built on it — Chrome/Perfetto timeline export
// (perfetto.go), ASCII subwarp-state timelines (timeline.go), latency
// histograms and time-series sampling (via internal/stats).
//
// The layer is zero-overhead when disabled: the pipeline holds a plain
// *Recorder that is nil by default, and every emission site is gated on
// a single nil check — no interface dispatch on the hot path. With a
// recorder attached, the stream can be restricted to a set of global
// warp IDs, so tracing a handful of warps through a large run stays
// cheap.
package trace

import (
	"fmt"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/stats"
)

// Kind identifies one event type in the pipeline taxonomy.
type Kind uint8

const (
	// KindIssue: an instruction issued; Arg is the opcode.
	KindIssue Kind = iota
	// KindStall: subwarp-stall demotion (ACTIVE -> STALLED); Arg is the
	// blocking scoreboard ID.
	KindStall
	// KindWakeup: subwarp-wakeup (STALLED -> READY) of the lane in
	// Mask; Arg is the scoreboard ID whose count reached zero.
	KindWakeup
	// KindSelectStart: the subwarp scheduler initiated subwarp-select;
	// Arg is the switch latency being paid.
	KindSelectStart
	// KindSelect: subwarp-select completed (READY -> ACTIVE).
	KindSelect
	// KindYield: subwarp-yield (ACTIVE -> READY).
	KindYield
	// KindActivate: a subwarp became ACTIVE by any mechanism (select,
	// divergence election, reconvergence, barrier release).
	KindActivate
	// KindDivergeReady: a divergent branch parked this losing subgroup
	// READY; Arg is the total number of subgroups the branch produced.
	KindDivergeReady
	// KindBarrierBlock: an unsuccessful BSYNC blocked the subwarp; Arg
	// is the convergence barrier index.
	KindBarrierBlock
	// KindReconverge: a convergence barrier released and merged Mask.
	KindReconverge
	// KindScbdSet: a guarded long-latency op issued, incrementing the
	// scoreboard in Arg for Mask.
	KindScbdSet
	// KindScbdRelease: the lane in Mask counted its scoreboard (Arg)
	// down to zero — its dependency cleared.
	KindScbdRelease
	// KindWriteback: one lane's register writeback arrived; Arg is the
	// scoreboard ID it decrements.
	KindWriteback
	// KindFetchMiss: instruction fetch missed the L0I; Arg is the fill
	// latency in cycles.
	KindFetchMiss
	// KindRTStart: a TRACE op entered the RT core; Arg is the modeled
	// traversal latency of the slowest lane.
	KindRTStart
	// KindExit: the threads in Mask exited the program.
	KindExit

	numKinds
)

var kindNames = [numKinds]string{
	"issue", "stall", "wakeup", "select-start", "select", "yield",
	"activate", "diverge-ready", "barrier-block", "reconverge",
	"scbd-set", "scbd-release", "writeback", "fetch-miss", "rt-start",
	"exit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one cycle-stamped pipeline event.
type Event struct {
	Cycle int64
	Kind  Kind
	SM    uint8
	Block uint8
	Warp  int32 // global warp ID in the launch
	PC    int32 // active-subwarp PC at the event (-1 when not applicable)
	Mask  bits.Mask
	Arg   int32 // kind-specific payload (scoreboard ID, latency, ...)
}

func (e Event) String() string {
	return fmt.Sprintf("c%d sm%d.b%d.w%d %s pc=%d mask=%s arg=%d",
		e.Cycle, e.SM, e.Block, e.Warp, e.Kind, e.PC, e.Mask, e.Arg)
}

// DefaultEventLimit caps the stored event stream so an unfiltered trace
// of a long run degrades gracefully instead of exhausting memory.
const DefaultEventLimit = 4 << 20

// Recorder collects the event stream and maintains the derived latency
// histograms. It is attached to a run through config.Config.Trace; a
// nil recorder disables all tracing.
//
// A Recorder is not safe for concurrent emission. SMs simulate in
// parallel, so gpu.Run never shares one recorder across SMs: it hands
// each SM a shard created with Child and, after every SM finishes,
// folds the shards back with Absorb in ascending SM order. That merge
// order makes the stored stream, drop counts, histograms, and time
// series bit-identical regardless of how the SM goroutines interleaved
// — and identical to a fully sequential run.
type Recorder struct {
	warps map[int32]bool // nil = record every warp
	limit int

	// The stream, in chunks of chunkEvents so that a stored event is never
	// copied again: not as it grows, not by Absorb, which takes the chunks.
	chunks  [][]Event
	n       int // stored events, the sum of the chunk lengths
	dropped int64

	// Latency histograms, fed regardless of the warp filter.
	LoadToUse stats.Histogram // scoreboard set -> demotion distance
	StallDur  stats.Histogram // demotion -> first wakeup duration
	Residency stats.Histogram // subwarp activation -> deactivation

	// Series receives per-block-cycle occupancy/IPC/TST samples when
	// non-nil; see NewTimeSeries.
	Series *stats.TimeSeries

	pairing []warpPairing // histogram pairing state, by global warp ID
}

const chunkEvents = 4096 // the storage granule: 128 KiB of 32-byte events

// warpPairing is one warp's open histogram intervals; cycles are stored
// plus one, so that the zero value means none is open.
type warpPairing struct {
	activeAt  int64       // activation cycle of the open residency
	scbdSetAt []int64     // by scoreboard ID: cycle of its last set
	stalls    []openStall // demotions not yet woken, at most one per PC
}

type openStall struct {
	pc int32
	at int64
}

// at returns &(*s)[i], first growing *s with zero values to hold it.
func at[T any](s *[]T, i int32) *T {
	if grow := int(i) + 1 - len(*s); grow > 0 {
		*s = append(*s, make([]T, grow)...)
	}
	return &(*s)[i]
}

// NewRecorder returns a recorder with no warp filter and the default
// event limit.
func NewRecorder() *Recorder {
	return &Recorder{limit: DefaultEventLimit}
}

// FilterWarps restricts the stored stream to the given global warp IDs;
// an empty list removes the filter.
func (r *Recorder) FilterWarps(ids []int) {
	if len(ids) == 0 {
		r.warps = nil
		return
	}
	r.warps = make(map[int32]bool, len(ids))
	for _, id := range ids {
		r.warps[int32(id)] = true
	}
}

// Child returns a fresh shard recorder inheriting r's warp filter,
// event limit, and time-series window. One run hands a child to
// each concurrently simulated SM; Absorb folds the shards back into r.
func (r *Recorder) Child() *Recorder {
	// The filter map is shared: nothing writes it once FilterWarps built it.
	c := &Recorder{limit: r.limit, warps: r.warps}
	if r.Series != nil {
		c.Series = stats.NewTimeSeries(r.Series.Window)
	}
	return c
}

// Absorb merges shard recorders into r in the order given, consuming
// them: r takes each shard's chunks (no event is copied) and leaves it
// empty. Callers pass shards in ascending SM order so the merged stream
// matches what a sequential simulation emitting straight into r would
// have stored: events up to r's limit (the rest count as dropped),
// histogram and time-series samples and shard drop counts accumulate.
func (r *Recorder) Absorb(children ...*Recorder) {
	for _, c := range children {
		if c == nil {
			continue
		}
		for _, chunk := range c.chunks {
			if room := max(r.limit-r.n, 0); len(chunk) > room {
				r.dropped += int64(len(chunk) - room)
				chunk = chunk[:room]
			}
			if len(chunk) > 0 {
				r.chunks = append(r.chunks, chunk)
				r.n += len(chunk)
			}
		}
		c.chunks, c.n = nil, 0
		r.dropped += c.dropped
		r.LoadToUse.Merge(&c.LoadToUse)
		r.StallDur.Merge(&c.StallDur)
		r.Residency.Merge(&c.Residency)
		if r.Series != nil && c.Series != nil {
			r.Series.Merge(c.Series)
		}
	}
}

// SetLimit caps the stored event count (values < 1 keep one event).
func (r *Recorder) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	r.limit = n
}

// Events returns the recorded stream in emission order, as one new slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	r.each(func(ev *Event) { out = append(out, *ev) })
	return out
}

func (r *Recorder) each(f func(*Event)) {
	for _, chunk := range r.chunks {
		for i := range chunk {
			f(&chunk[i])
		}
	}
}

// Len returns the number of stored events.
func (r *Recorder) Len() int { return r.n }

// Dropped returns how many events the limit discarded.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Emit records one event. Histogram pairing always observes the event;
// storage honors the warp filter and limit.
func (r *Recorder) Emit(cycle int64, sm, block int, warp int32, pc int32, mask bits.Mask, kind Kind, arg int32) {
	r.observe(cycle, warp, pc, kind, arg)
	if r.warps != nil && !r.warps[warp] {
		return
	}
	if r.n >= r.limit {
		r.dropped++
		return
	}
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		r.chunks = append(r.chunks, make([]Event, 0, chunkEvents))
		last++
	}
	r.chunks[last] = append(r.chunks[last], Event{
		Cycle: cycle, Kind: kind, SM: uint8(sm), Block: uint8(block),
		Warp: warp, PC: pc, Mask: mask, Arg: arg,
	})
	r.n++
}

// observe maintains the latency histograms from the event stream.
func (r *Recorder) observe(cycle int64, warp int32, pc int32, kind Kind, arg int32) {
	p := at(&r.pairing, warp)
	switch kind {
	case KindScbdSet:
		*at(&p.scbdSetAt, arg) = cycle + 1
	case KindStall:
		if uint(arg) < uint(len(p.scbdSetAt)) && p.scbdSetAt[arg] != 0 {
			r.LoadToUse.Observe(cycle + 1 - p.scbdSetAt[arg])
		}
		r.closeResidency(cycle, p)
		for i := range p.stalls {
			if p.stalls[i].pc == pc {
				p.stalls[i].at = cycle
				return
			}
		}
		p.stalls = append(p.stalls, openStall{pc, cycle})
	case KindWakeup:
		for i, s := range p.stalls {
			if s.pc == pc {
				r.StallDur.Observe(cycle - s.at)
				p.stalls = append(p.stalls[:i], p.stalls[i+1:]...)
				return
			}
		}
	case KindActivate, KindSelect:
		r.closeResidency(cycle, p)
		p.activeAt = cycle + 1
	case KindYield, KindBarrierBlock, KindExit:
		r.closeResidency(cycle, p)
	}
}

func (r *Recorder) closeResidency(cycle int64, p *warpPairing) {
	if p.activeAt != 0 {
		r.Residency.Observe(cycle + 1 - p.activeAt)
		p.activeAt = 0
	}
}

// Sampling reports whether per-cycle samples have a series to go to; nil-safe.
func (r *Recorder) Sampling() bool { return r != nil && r.Series != nil }

// Sample feeds one stepped block-cycle into the time series (no-op
// without one).
func (r *Recorder) Sample(cycle int64, occupancy, subwarps, tstFill int, issued bool) {
	if r.Series != nil {
		r.Series.Add(cycle, occupancy, subwarps, tstFill, issued)
	}
}

// SampleGap feeds a fast-forwarded idle span [from, to) of block-cycles
// during which the sampled quantities were constant.
func (r *Recorder) SampleGap(from, to int64, occupancy, subwarps, tstFill int) {
	if r.Series != nil {
		r.Series.AddRange(from, to, occupancy, subwarps, tstFill)
	}
}

// Histograms returns the recorder's latency histograms, named and in
// display order.
func (r *Recorder) Histograms() []*stats.Histogram {
	r.LoadToUse.Name = "load-to-use distance (cycles)"
	r.StallDur.Name = "subwarp stall duration (cycles)"
	r.Residency.Name = "subwarp residency (cycles)"
	return []*stats.Histogram{&r.LoadToUse, &r.StallDur, &r.Residency}
}
