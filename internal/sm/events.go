package sm

import "subwarpsim/internal/bits"

// wbEvent is one pending writeback on the broadcast ports of Fig. 8b:
// at cycle at, every lane of mask receives a value in register reg and
// releases scoreboard sbid. A load pushes one event per coalesced line
// (per 256-byte window of a longer one), whose lane l reads base+off[l];
// a TRACE pushes one per lane, as each ray has its own latency, with
// ray set and the hit record in base. warp indexes the block's roster,
// so the queue holds no pointers.
type wbEvent struct {
	at   int64
	base uint64
	seq  uint32
	warp int32
	mask bits.Mask
	reg  uint8
	sbid int8
	ray  bool
	off  [bits.WarpSize]uint8
}

// before orders events by due cycle, then by push sequence: same-cycle
// writebacks apply in issue order, and applyWriteback walks an event's
// lanes in ascending order. Sequence numbers compare by their wrapped
// difference, so the order holds across a uint32 wrap as long as fewer
// than 2^31 pushes separate two pending events.
func (e *wbEvent) before(o *wbEvent) bool {
	return e.at < o.at || e.at == o.at && int32(e.seq-o.seq) < 0
}

// eventQueue is the block's pending-writeback queue: a binary min-heap
// of wbEvent values under before, with the push counter that stamps
// each event's sequence. Values, not pointers or interfaces, so push
// and drop never allocate once the slice has grown to the block's
// high-water mark.
type eventQueue struct {
	h   []wbEvent
	seq uint32
}

// push stamps ev with the next sequence number and inserts it.
func (q *eventQueue) push(ev wbEvent) {
	ev.seq = q.seq
	q.seq++
	h := append(q.h, ev)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
	q.h = h
}

// drop removes the head, h[0], which the caller has applied in place.
func (q *eventQueue) drop() {
	h := q.h
	n := len(h) - 1
	last := &h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].before(&h[j]) {
			j++
		}
		if !h[j].before(last) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = *last
	q.h = h[:n]
}
