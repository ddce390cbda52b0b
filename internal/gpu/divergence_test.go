package gpu

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/testutil"
)

// TestDivergenceBitMatchesLaneScan runs the ten traces and the
// divergence microbenchmark, baseline, SI and a two-entry TST, in both
// regimes under Config.Check: a remembered bit that disagrees with its
// warp's lanes panics inside the SM, which fails the run. The same
// check is on for every other test here and in internal/experiments,
// so the FuzzRun seed corpus and the golden corpus hold it too;
// tools/check.sh gates this one by name.
func TestDivergenceBitMatchesLaneScan(t *testing.T) {
	if !testutil.Checked() {
		t.Skip("-bench turns Config.Check off")
	}
	tinyTST := defaultConfig().WithSI(true, config.TriggerAnyStalled)
	tinyTST.SI.MaxSubwarps = 2
	cfgs := map[string]config.Config{
		"baseline": defaultConfig(),
		"si":       defaultConfig().WithSI(true, config.TriggerHalfStalled),
		"tinyTST":  tinyTST,
	}
	for _, w := range diffWorkloads(t) {
		for cname, cfg := range cfgs {
			w, cfg := w, cfg
			t.Run(w.name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				for _, compiled := range []bool{true, false} {
					cfg.Compiled = compiled
					if res, _ := runWith(t, w, cfg, 0); res.Counters.ExposedLoadStallsDivergent == 0 {
						t.Errorf("compiled=%v: no divergent stall classified, nothing was checked", compiled)
					}
				}
			})
		}
	}
}
