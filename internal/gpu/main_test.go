package gpu

import (
	"flag"
	"os"
	"testing"

	"subwarpsim/internal/sm"
)

// TestMain runs every test of this package — the differential suites
// and the FuzzRun seed corpus, both regimes — with the SM's remembered
// divergence bits checked against a lane scan at every read. Benchmarks
// run without the rescan they would otherwise time.
func TestMain(m *testing.M) {
	flag.Parse()
	sm.CheckDivergence = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}
