package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start and end in
// nanoseconds since the recorder's epoch, the span that caused it
// (-1 for an operation's root) and the operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the traced pass runs its "spans off"
// comparison passes through the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// time runs f inside a span.
func (r *recorder) time(name string, parent, op int, f func()) {
	id := r.begin(name, parent, op)
	f()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time: its duration minus the
// time its children cover. Children may overlap one another (an SM
// goroutine pair, a put inside an exec), so they are merged before
// subtracting. A child timed by re-enactment — the same call made
// again right after its parent returned, because the parent's inside
// is private — lies outside the parent's wall interval; its covered
// length still counts, capped at the parent's duration.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		covered := unionLength(children[i])
		if covered > dur {
			covered = dur
		}
		self[i] = dur - covered
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := int64(0)
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
