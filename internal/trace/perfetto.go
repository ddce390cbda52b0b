package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// eventWriter streams a Chrome trace_event document, the format
// ui.perfetto.dev and chrome://tracing load. Each event is assembled in
// one reused buffer and written straight out: open, the name, fields, any
// args, done. Timestamps are microseconds; one cycle is exported as 1us.
type eventWriter struct {
	w   *bufio.Writer // its sticky write error surfaces in finish
	buf []byte
	n   int   // events written
	err error // failures to render caller-supplied values
}

func newEventWriter(w io.Writer) *eventWriter {
	ew := &eventWriter{w: bufio.NewWriterSize(w, 64<<10), buf: make([]byte, 0, 256)}
	ew.w.WriteString(`{"traceEvents":[`)
	return ew
}

func (ew *eventWriter) open() []byte {
	ew.n++
	if ew.n == 1 {
		return append(ew.buf[:0], `{"name":"`...)
	}
	return append(ew.buf[:0], `,{"name":"`...)
}

// fields ends the name and appends the fixed members. ph is 'X' (slice,
// dur at least 1), 'i' (thread-scoped instant), 'M' (metadata) or 'C'.
func fields(b []byte, ph byte, ts, dur int64, pid, tid int, cat string) []byte {
	b = append(append(b, `","ph":"`...), ph)
	b = strconv.AppendInt(append(b, `","ts":`...), ts, 10)
	if ph == 'X' {
		b = strconv.AppendInt(append(b, `,"dur":`...), max(dur, 1), 10)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	if ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	if cat != "" {
		b = append(append(append(b, `,"cat":"`...), cat...), '"')
	}
	return b
}

// arg appends one integer member of args, which callers list in
// alphabetical key order; first marks the one that opens the object.
func arg(b []byte, first bool, key string, v int32) []byte {
	open := `,"`
	if first {
		open = `,"args":{"`
	}
	return strconv.AppendInt(append(append(append(b, open...), key...), `":`...), int64(v), 10)
}

func (ew *eventWriter) done(b []byte, argsOpen bool) {
	if argsOpen {
		b = append(b, '}')
	}
	ew.buf = append(b, '}')
	ew.w.Write(ew.buf)
}

// json appends v as encoding/json renders it (labels, float counters,
// caller-supplied args); quoted drops v's quotes, b being inside a string.
func (ew *eventWriter) json(b []byte, v any, quoted bool) []byte {
	q, err := json.Marshal(v)
	ew.err = errors.Join(ew.err, err)
	if quoted && err == nil {
		q = q[1 : len(q)-1]
	}
	return append(b, q...)
}

// labelled writes a track name ('M') or counter sample ('C'): one arg, v.
func (ew *eventWriter) labelled(name string, ph byte, ts int64, pid, tid int, key string, v any) {
	b := fields(append(ew.open(), name...), ph, ts, 0, pid, tid, "")
	b = append(append(append(b, `,"args":{"`...), key...), `":`...)
	ew.done(ew.json(b, v, false), true)
}

func (ew *eventWriter) finish() error {
	ew.w.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return errors.Join(ew.w.Flush(), ew.err)
}

// span is a duration slice under construction: a residency (pc,
// lanes), a stall (pc, lanes, scoreboard n) or a select (latency n).
type span struct {
	open         bool
	start        int64
	pc, lanes, n int32
}

// warpTrack is one warp's thread track and its open slices.
type warpTrack struct {
	seen              bool
	sm, block         uint8
	active, selecting span
}

// instantNames names the instant markers; suffix appends Arg ('a') or PC ('p').
var instantNames = [numKinds]struct {
	name   string
	suffix byte
}{
	KindStall:        {"subwarp-stall sb", 'a'},
	KindWakeup:       {"subwarp-wakeup sb", 'a'},
	KindSelect:       {"subwarp-select", 0},
	KindYield:        {"subwarp-yield", 0},
	KindDivergeReady: {"diverge pc=", 'p'},
	KindBarrierBlock: {"barrier-block B", 'a'},
	KindReconverge:   {"reconverge", 0},
	KindScbdSet:      {"scbd-set sb", 'a'},
	KindScbdRelease:  {"scbd-release sb", 'a'},
	KindWriteback:    {"writeback sb", 'a'},
	KindExit:         {"exit", 0},
}

// chromeExport is the state of one WriteChromeTrace walk.
type chromeExport struct {
	*eventWriter
	tracks []warpTrack    // by global warp ID
	stalls map[int64]span // warp<<32|pc -> open stall slice
	last   int64          // highest cycle seen
}

func stallKey(warp, pc int32) int64 { return int64(warp)<<32 | int64(uint32(pc)) }

// The close functions write a warp's open slice, if any, ending at end.
func (x *chromeExport) closeActive(t *warpTrack, warp int32, end int64) {
	if s := &t.active; s.open {
		s.open = false
		b := strconv.AppendInt(append(x.open(), "active pc="...), int64(s.pc), 10)
		b = strconv.AppendInt(append(b, " lanes="...), int64(s.lanes), 10)
		b = fields(b, 'X', s.start, end-s.start, int(t.sm), int(warp), "subwarp")
		x.done(arg(arg(b, true, "lanes", s.lanes), false, "pc", s.pc), true)
	}
}

func (x *chromeExport) closeSelect(t *warpTrack, warp int32, end int64) {
	if s := &t.selecting; s.open {
		s.open = false
		b := append(x.open(), "select (switch latency)"...)
		b = fields(b, 'X', s.start, end-s.start, int(t.sm), int(warp), "subwarp")
		x.done(arg(b, true, "latency", s.n), true)
	}
}

func (x *chromeExport) closeStall(key int64, end int64) {
	if s, ok := x.stalls[key]; ok {
		delete(x.stalls, key)
		warp := int32(key >> 32)
		b := strconv.AppendInt(append(x.open(), "stalled pc="...), int64(s.pc), 10)
		b = strconv.AppendInt(append(b, " sb"...), int64(s.n), 10)
		b = fields(b, 'X', s.start, end-s.start, int(x.tracks[warp].sm), int(warp), "subwarp")
		x.done(arg(arg(arg(b, true, "lanes", s.lanes), false, "pc", s.pc), false, "scoreboard", s.n), true)
	}
}

// event renders one recorded event as duration slices and instant markers.
func (x *chromeExport) event(ev *Event) {
	x.last = max(x.last, ev.Cycle)
	t := at(&x.tracks, ev.Warp)
	if !t.seen {
		*t = warpTrack{seen: true, sm: ev.SM, block: ev.Block}
	}
	lanes := int32(ev.Mask.Count())
	residency := span{open: true, start: ev.Cycle, pc: ev.PC, lanes: lanes}
	switch ev.Kind {
	case KindIssue:
		// Lazily open a residency slice for warps that were active
		// from launch (no explicit activate event).
		if !t.active.open {
			t.active = residency
		}
		return
	case KindActivate, KindSelect:
		x.closeActive(t, ev.Warp, ev.Cycle)
		t.active = residency
		if ev.Kind == KindSelect {
			x.closeSelect(t, ev.Warp, ev.Cycle)
			x.instant(ev, t)
		}
		// A select completion also ends any stall slice of the
		// activated subwarp that never saw a wakeup event.
		x.closeStall(stallKey(ev.Warp, ev.PC), ev.Cycle)
		return
	case KindSelectStart:
		t.selecting = span{open: true, start: ev.Cycle, n: ev.Arg}
		return
	case KindStall:
		x.closeActive(t, ev.Warp, ev.Cycle)
		x.stalls[stallKey(ev.Warp, ev.PC)] = span{start: ev.Cycle, pc: ev.PC, lanes: lanes, n: ev.Arg}
	case KindWakeup:
		x.closeStall(stallKey(ev.Warp, ev.PC), ev.Cycle)
	case KindYield, KindBarrierBlock, KindExit:
		x.closeActive(t, ev.Warp, ev.Cycle)
	case KindFetchMiss:
		b := fields(append(x.open(), "fetch miss"...), 'X', ev.Cycle, int64(ev.Arg), int(ev.SM), int(ev.Warp), "fetch")
		x.done(arg(b, true, "pc", ev.PC), true)
		return
	case KindRTStart:
		b := fields(append(x.open(), "rt trace"...), 'X', ev.Cycle, int64(ev.Arg), int(ev.SM), int(ev.Warp), "rtcore")
		x.done(arg(arg(b, true, "lanes", lanes), false, "pc", ev.PC), true)
		return
	}
	x.instant(ev, t)
}

func (x *chromeExport) instant(ev *Event, t *warpTrack) {
	in := &instantNames[ev.Kind]
	b := append(x.open(), in.name...)
	switch in.suffix {
	case 'a':
		b = strconv.AppendInt(b, int64(ev.Arg), 10)
	case 'p':
		b = strconv.AppendInt(b, int64(ev.PC), 10)
	}
	b = fields(b, 'i', ev.Cycle, 0, int(t.sm), int(ev.Warp), "event")
	x.done(arg(arg(b, true, "lanes", int32(ev.Mask.Count())), false, "pc", ev.PC), true)
}

// WriteChromeTrace renders the recorded stream as Chrome trace_event
// JSON: one process per SM, one thread track per warp, duration slices
// for subwarp residency / stall periods / subwarp-select latency /
// RT-core traversals / fetch misses, and instant markers for the
// remaining events. Time-series windows (when sampling was enabled)
// export as Perfetto counter tracks. One walk over the stream, in place;
// the same recorder always exports the same bytes.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	x := chromeExport{eventWriter: newEventWriter(w), stalls: map[int64]span{}}
	r.each(x.event)

	// Close whatever is still open at the end of the run: residency and
	// select in ascending warp, then stalls in ascending (warp, pc).
	end := x.last + 1
	for warp := range x.tracks {
		x.closeActive(&x.tracks[warp], int32(warp), end)
		x.closeSelect(&x.tracks[warp], int32(warp), end)
	}
	keys := make([]int64, 0, len(x.stalls))
	for key := range x.stalls {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		x.closeStall(key, end)
	}

	// Track naming metadata, in ascending warp.
	var named [256]bool // SMs whose process is named
	for warp, t := range x.tracks {
		if !t.seen {
			continue
		}
		if !named[t.sm] {
			named[t.sm] = true
			x.labelled("process_name", 'M', 0, int(t.sm), 0, "name", fmt.Sprintf("SM %d", t.sm))
		}
		x.labelled("thread_name", 'M', 0, int(t.sm), warp, "name",
			fmt.Sprintf("warp %d (block %d)", warp, t.block))
	}

	// Time-series counter tracks.
	if r.Series != nil {
		for i, win := range r.Series.Windows() {
			ts := int64(i) * r.Series.Window
			x.labelled("occupancy", 'C', ts, 0, 0, "warps", win.Occupancy())
			x.labelled("live subwarps", 'C', ts, 0, 0, "subwarps", win.Subwarps())
			x.labelled("ipc", 'C', ts, 0, 0, "ipc", win.IPC())
			x.labelled("tst fill", 'C', ts, 0, 0, "entries", win.TSTFill())
		}
	}
	return x.finish()
}

// Slice is one named duration for WriteChromeSlices: a generic slice
// on a named track, in microseconds. It lets other subsystems (the obs
// request tracer) reuse this package's trace_event export without
// depending on the simulator's Event stream.
type Slice struct {
	Track   string
	Name    string
	StartUS int64
	DurUS   int64
	Args    map[string]any
}

// WriteChromeSlices renders arbitrary slices as Chrome trace_event
// JSON under a single process named process, with one thread track per
// distinct Slice.Track (in first-appearance order). The output loads
// in ui.perfetto.dev exactly like WriteChromeTrace's.
func WriteChromeSlices(w io.Writer, process string, spans []Slice) error {
	ew := newEventWriter(w)
	ew.labelled("process_name", 'M', 0, 0, 0, "name", process)
	var tracks []string // tid -> track; a request has a handful
	for _, s := range spans {
		tid := slices.Index(tracks, s.Track)
		if tid < 0 {
			tid = len(tracks)
			tracks = append(tracks, s.Track)
		}
		b := fields(ew.json(ew.open(), s.Name, true), 'X', s.StartUS, s.DurUS, 0, tid, "request")
		if len(s.Args) > 0 {
			b = ew.json(append(b, `,"args":`...), s.Args, false)
		}
		ew.done(b, false)
	}
	for tid, track := range tracks {
		ew.labelled("thread_name", 'M', 0, 0, tid, "name", track)
	}
	return ew.finish()
}
