package experiments

import (
	"flag"
	"os"
	"testing"

	"subwarpsim/internal/sm"
)

// TestMain runs every test of this package — the golden corpus in both
// regimes among them — with the SM's remembered divergence bits checked
// against a lane scan at every read. Benchmarks run without the rescan
// they would otherwise time.
func TestMain(m *testing.M) {
	flag.Parse()
	sm.CheckDivergence = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}
