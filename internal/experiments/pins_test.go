package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

// updateDigests rewrites the Quick report digests from the current
// output instead of comparing with them:
//
//	go test ./internal/experiments -run TestReportsMatchPins -args -update-digests
//
// Rewrite them only when a report is meant to change.
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/report_digests.json from current output")

const (
	digestsPath    = "testdata/report_digests.json"
	fullReportPath = "../../results/full_report.txt"
)

// TestReportsMatchPins holds every report's bytes. At full size the
// combined report, as cmd/experiments -o writes it, equals
// results/full_report.txt; in Quick mode each report's SHA-256 equals
// its entry in testdata/report_digests.json. At both sizes each
// experiment run alone renders what it renders inside the whole plan.
func TestReportsMatchPins(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		reports := quickRun.get(t, quick())
		got := make(map[string]string)
		for _, r := range reports {
			sum := sha256.Sum256([]byte(r.String()))
			got[r.ID] = hex.EncodeToString(sum[:])
		}
		if *updateDigests {
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(digestsPath, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		data, err := os.ReadFile(digestsPath)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]string
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%d reports, %d pinned", len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Errorf("%s: Quick report digest %s, pinned %s", id, got[id], w)
			}
		}
		aloneMatchesWhole(t, quick(), reports)
	})

	t.Run("full", func(t *testing.T) {
		skipLong(t)
		reports := fullRun.get(t, full())
		var combined strings.Builder
		for _, r := range reports {
			combined.WriteString(r.String())
			combined.WriteString("\n")
		}
		want, err := os.ReadFile(fullReportPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := combined.String(); got != string(want) {
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gotLines), len(wantLines)) {
				if gotLines[i] != wantLines[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
					break
				}
			}
			t.Errorf("the full report (%d lines) differs from %s (%d lines)", len(gotLines), fullReportPath, len(wantLines))
		}
		aloneMatchesWhole(t, full(), reports)
	})
}

// aloneMatchesWhole runs each experiment on a plan of its own and
// compares it with its report from RunAll(All()).
func aloneMatchesWhole(t *testing.T, o Options, whole []*Report) {
	t.Helper()
	for i, e := range All() {
		r, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.String() != whole[i].String() {
			t.Errorf("%s run alone renders differently from inside the whole plan", e.ID)
		}
	}
}
