package gpu

import (
	"subwarpsim/internal/config"
	"subwarpsim/internal/testutil"
)

// defaultConfig is config.Default() as every test here runs it — the
// differential suites and the FuzzRun seed corpus, both regimes: with
// the SM's self-checks on (off under -bench), so each block-cycle the
// run loop would have excused is stepped and compared with its
// prediction, and each remembered divergence bit with a lane scan.
func defaultConfig() config.Config {
	cfg := config.Default()
	cfg.Check = testutil.Checked()
	return cfg
}
