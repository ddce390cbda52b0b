package sm

import (
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/mem"
)

// TestDivergenceBitMatchesLaneScan steps the Fig. 9 kernel — two
// subwarps, a load-to-use stall on each — under the baseline and SI in
// both regimes under Config.Check, then shows the check is live: the bit
// is remembered across idle cycles, dropped when the warp issues, and a
// stale one is caught.
func TestDivergenceBitMatchesLaneScan(t *testing.T) {
	if !testConfig().Check {
		t.Skip("-bench turns Config.Check off")
	}
	for _, cfg := range []config.Config{testConfig(), testConfig().WithSI(true, config.TriggerAnyStalled)} {
		for _, compiled := range []bool{true, false} {
			cfg.Compiled = compiled
			c, _ := run(t, cfg, divergentIfElse(true), 4)
			if c.ExposedLoadStallsDivergent == 0 {
				t.Errorf("si=%v compiled=%v: no divergent stall classified, nothing was checked", cfg.SI.Enabled, compiled)
			}
		}
	}

	k := &Kernel{Program: divergentIfElse(true), NumWarps: 1, WarpsPerCTA: 1, Memory: mem.NewMemory()}
	s, err := NewSM(0, testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(0, 0, 0, 0)
	blk := s.blocks[0]
	w := blk.warps[0]
	now := int64(0)
	for ; !(w.divKnown && w.diverged); now++ {
		if now > 1000 {
			t.Fatal("the warp never stalled diverged")
		}
		if issued, _ := blk.step(now); issued && w.divKnown {
			t.Fatalf("cycle %d: the bit survived the warp's own issue", now)
		}
	}
	if issued, _ := blk.step(now); issued || !w.divKnown {
		t.Fatalf("cycle %d: issued=%v divKnown=%v, want a second idle cycle on the remembered bit", now, issued, w.divKnown)
	}
	w.diverged = false
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "remembers diverged=false") {
			t.Errorf("a stale divergence bit went unnoticed: recovered %v", r)
		}
	}()
	blk.step(now + 1)
}
