package sm

import (
	"testing"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/stats"
)

// crossing is one straight line of simple ops, S2R through PC 39, over
// icache lines 0 (PCs 0-15), 1 (16-31) and 2 (32-47), that stores what
// it computed. Each IMULI into R2 is overwritten unread by the next, so
// a run that retires the next one skips it (isa.Compiled.DeadAt).
func crossing() *isa.Program {
	b := isa.NewBuilder("crossing")
	b.S2R(0, isa.SRLaneID)
	b.Shl(0, 0, 2)
	for i := 0; i < 19; i++ {
		b.Iaddi(1, 1, 1)
		b.Imuli(2, 1, 3)
	}
	b.Stg(0, 0, 2)
	b.Stg(0, 256, 1)
	return b.Exit().MustBuild()
}

// TestRunCrossesResidentLines: after the S2R issues at cycle 0, plan
// excuses the block for a run from PC 1 that continues into line 1 only
// when line 1 is resident in the L0I and filled by cycle 16, when PC 16
// issues, and into line 2 on the same terms; otherwise the run ends at
// the line end. Each way, the run's counters, L0I accesses included,
// and its stores equal lock-step's (Config.Check).
func TestRunCrossesResidentLines(t *testing.T) {
	const absent = -1
	for _, tc := range []struct {
		name           string
		ready1, ready2 int64 // fill cycle of lines 1 and 2 in the L0I
		run            int64
	}{
		{"next line absent", absent, absent, 15},
		{"next line in flight when reached", 17, 0, 15},
		{"next line filled when reached", 16, absent, 31},
		{"two lines resident", 16, 0, 39},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]stats.Counters
			for i, check := range []bool{false, true} {
				cfg := config.Default()
				cfg.NumSMs, cfg.BlocksPerSM, cfg.Compiled, cfg.Check = 1, 1, true, check
				k := &Kernel{Program: crossing(), NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
				s, err := NewSM(0, cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				s.Admit(0, 0, 0, 0)
				blk := s.blocks[0]
				for line, ready := range []int64{0, tc.ready1, tc.ready2} {
					if ready != absent {
						blk.l0i.Access(uint64(line*cfg.CacheLineBytes), 0, func(int64) int64 { return ready })
					}
				}
				if _, err := s.advance(1 << 20); err != nil {
					t.Fatal(err)
				}
				if blk.counters.IssuedInstrs != 1 || blk.runLen != tc.run || blk.due != 1+tc.run {
					t.Fatalf("check=%v: after cycle 0 issued %d, run %d due %d; want 1, run %d due %d",
						check, blk.counters.IssuedInstrs, blk.runLen, blk.due, tc.run, 1+tc.run)
				}
				for done := false; !done; {
					if done, err = s.advance(1 << 20); err != nil {
						t.Fatal(err)
					}
				}
				got[i] = s.merge()
				for l := uint64(0); l < bits.WarpSize; l++ {
					if r2, r1 := s.mem.Load(4*l), s.mem.Load(256+4*l); r2 != 57 || r1 != 19 {
						t.Errorf("check=%v: lane %d stored R2=%d R1=%d, want 57, 19", check, l, r2, r1)
					}
				}
			}
			if got[0] != got[1] {
				t.Errorf("counters differ from lock-step\nserved  %+v\nchecked %+v", got[0], got[1])
			}
		})
	}
}
