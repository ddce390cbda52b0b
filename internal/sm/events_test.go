package sm

import (
	"math/rand"
	"testing"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
)

// TestEventQueuePopOrderSorted drives the queue through interleaved
// pushes and drops with heavy due-time ties and a sequence counter
// about to wrap: the head always comes out by due cycle, then in push
// order. Each event's warp field carries its push index.
func TestEventQueuePopOrderSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := eventQueue{seq: 1<<32 - 300}
	pushed := 0
	var last wbEvent
	popped := 0
	for op := 0; op < 5000; op++ {
		if len(q.h) == 0 || rng.Intn(3) != 0 {
			q.push(wbEvent{at: last.at + int64(rng.Intn(8)), warp: int32(pushed)})
			pushed++
			continue
		}
		ev := q.h[0]
		q.drop()
		if popped > 0 && ev.before(&last) {
			t.Fatalf("pop %d (at %d, push %d) came out after (at %d, push %d)", popped, ev.at, ev.warp, last.at, last.warp)
		}
		if popped > 0 && ev.at == last.at && ev.warp < last.warp {
			t.Fatalf("same-cycle pushes %d and %d popped out of push order", last.warp, ev.warp)
		}
		last = ev
		popped++
	}
}

// TestSameCycleWritebacksApplyInIssueOrder issues two loads of one
// line into R2 on consecutive cycles with different scoreboards: the
// second hits the line the first is fetching, so both land at one
// cycle. Per-thread sequential semantics says the later load wins, and
// the recorder sees the first load's lanes, then the second's, each in
// ascending lane order. Same-cycle ray returns also land lane by lane.
func TestSameCycleWritebacksApplyInIssueOrder(t *testing.T) {
	b := isa.NewBuilder("twoloads")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 2)   // this lane's word of the line
	b.Iaddi(3, 0, 1) // the next lane's, wrapping
	b.Movi(4, 31)
	b.Iand(3, 3, 4)
	b.Shl(3, 3, 2)
	b.Ldg(2, 1, 0x1000, 0)
	b.Ldg(2, 3, 0x1000, 1)
	b.Nop().Req(0)
	b.Stg(1, 0x2000, 2).Req(1)
	prog := b.Exit().MustBuild()

	cfg := testConfig()
	rec := trace.NewRecorder()
	cfg.Trace = rec
	k := &Kernel{Program: prog, NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	for lane := uint64(0); lane < 32; lane++ {
		k.Memory.Store(0x1000+4*lane, uint32(100+lane))
	}
	s, err := NewSM(0, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	if _, err := s.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	for lane := uint64(0); lane < 32; lane++ {
		if got, want := s.Memory().Load(0x2000+4*lane), uint32(100+(lane+1)%32); got != want {
			t.Fatalf("lane %d stored %d, want the second load's %d", lane, got, want)
		}
	}
	assertWritebackOrder(t, rec, []int32{0, 1})

	// Rays of equal latency return at one cycle, lane by lane.
	b = isa.NewBuilder("rays")
	b.S2R(1, isa.SRLaneID)
	b.Trace(4, 1, 0)
	b.Nop().Req(0)
	rk := &Kernel{
		Program: b.Exit().MustBuild(), NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory(),
		BVH: rtcore.BuildBVH([]rtcore.Triangle{
			{V0: rtcore.V(-1, -1, 5), V1: rtcore.V(1, -1, 5), V2: rtcore.V(0, 1, 5), Material: 3},
		}),
		RayGen: func(uint32) rtcore.Ray { return rtcore.NewRay(rtcore.V(0, 0, 0), rtcore.V(0, 0, 1)) },
	}
	rec = trace.NewRecorder()
	cfg.Trace = rec
	if s, err = NewSM(0, cfg, rk); err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	if _, err := s.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	assertWritebackOrder(t, rec, []int32{0})
}

// assertWritebackOrder requires every writeback to land at one cycle,
// scoreboard by scoreboard in the order given and each in ascending
// lane order.
func assertWritebackOrder(t *testing.T, rec *trace.Recorder, sbs []int32) {
	t.Helper()
	var want []trace.Event
	for _, sb := range sbs {
		for l := 0; l < bits.WarpSize; l++ {
			want = append(want, trace.Event{Kind: trace.KindWriteback, Mask: bits.LaneMask(l), Arg: sb})
		}
	}
	var got []trace.Event
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindWriteback {
			got = append(got, ev)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d writebacks, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Cycle != got[0].Cycle || ev.Mask != want[i].Mask || ev.Arg != want[i].Arg {
			t.Fatalf("writeback %d is %v, want lane mask %v of sb%d at cycle %d", i, ev, want[i].Mask, want[i].Arg, got[0].Cycle)
		}
	}
}

// ldgExit loads a word per thread and exits without waiting for it, so
// a warp's writebacks are still in flight when its slot is recycled.
// The store of the thread ID gives the run a non-trivial memory image.
func ldgExit() *isa.Program {
	b := isa.NewBuilder("ldgexit")
	b.S2R(0, isa.SRThreadID)
	b.Shl(1, 0, 2)
	b.Ldg(2, 1, 0, 0)
	b.Stg(1, 0x10000, 0)
	return b.Exit().MustBuild()
}

// TestWritebackAfterSlotRecycled runs 64 warps of LDG; EXIT through 8
// slots with a 20-cycle miss: a warp exits with its load in flight,
// retireExited refills its slot, and the load lands after that. It
// must land on the dead warp, never on the slot's new occupant. A
// second SM runs in lock step with every writeback of an exited warp
// emptied before it lands, and at every visited cycle each live warp
// holds the same registers and scoreboards in both. The counters and
// the image are pinned, and the recorder still sees every lane of the
// dead warps' writebacks.
func TestWritebackAfterSlotRecycled(t *testing.T) {
	cfg := testConfig()
	cfg.L1MissLatency = 20
	cfg.WarpSlotsPerBlock = 8
	ref := cfg
	rec := trace.NewRecorder()
	cfg.Trace = rec
	const warps = 64
	s, r := allocSM(t, cfg, ldgExit(), warps), allocSM(t, ref, ldgExit(), warps)
	blk, rblk := s.blocks[0], r.blocks[0]
	dead := map[int]bool{}
	for {
		for i := range rblk.events.h {
			if ev := &rblk.events.h[i]; rblk.roster[ev.warp].exited {
				ev.mask = 0
			}
		}
		done, err := s.advance(1 << 20)
		rdone, rerr := r.advance(1 << 20)
		if done != rdone || s.now != r.now || (err == nil) != (rerr == nil) {
			t.Fatalf("the runs parted at cycle %d/%d", s.now, r.now)
		}
		for i, w := range blk.warps {
			if rw := rblk.warps[i]; !w.exited && (w.ID != rw.ID || w.regs != rw.regs || *w.sb != *rw.sb) {
				t.Fatalf("cycle %d slot %d: warp %d differs from a run whose dead warps' loads never land", s.now, i, w.ID)
			}
		}
		for _, ev := range blk.events.h {
			if w := blk.roster[ev.warp]; w.exited && blk.warps[w.slot] != w {
				dead[w.ID] = true
			}
		}
		if done {
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if len(dead) == 0 {
		t.Fatal("no writeback was in flight for a recycled slot; the reproducer no longer reproduces")
	}

	want := stats.Counters{Cycles: 320, IssuedInstrs: 320, ActiveThreads: 10240,
		L1DAccesses: 64, L1DMisses: 64, L0IAccesses: 64, L0IMisses: 1, L1IMisses: 1}
	if got := s.merge(); got != want {
		t.Errorf("counters\n got  %+v\n want %+v", got, want)
	}
	if fp := s.mem.Fingerprint(); fp != 0x27cde568823279c7 {
		t.Errorf("memory fingerprint %#x, want 0x27cde568823279c7", fp)
	}
	lanes := map[int32]int{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindWriteback {
			lanes[ev.Warp] += ev.Mask.Count()
		}
	}
	for id := range dead {
		if lanes[int32(id)] != bits.WarpSize {
			t.Errorf("dead warp %d: %d lanes written back, want %d", id, lanes[int32(id)], bits.WarpSize)
		}
	}
}
