package cluster

import (
	"bytes"
	"context"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
)

var updateFamilies = flag.Bool("update-families", false,
	"rewrite testdata/exposition_families.txt from the current exposition")

const familiesPath = "testdata/exposition_families.txt"

// expositionFamilies renders the sorted # HELP and # TYPE lines of a
// fresh node, of the same node after one simulation (the per-workload
// families register on first use), and of a coordinator over two peers
// sharing its local node's registry.
func expositionFamilies(t *testing.T) string {
	t.Helper()
	header := func(o *obs.Observer) string {
		var buf bytes.Buffer
		o.Reg.WritePrometheus(&buf)
		if err := obs.Lint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("exposition failed lint: %v", err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
				lines = append(lines, l)
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n") + "\n"
	}
	drain := func(s *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}

	var out strings.Builder
	nodeObs := obs.New(server.MetricsNamespace, 16, 4, nil)
	node := server.New(server.Options{Workers: 1, Obs: nodeObs})
	defer drain(node)
	out.WriteString("== node, fresh ==\n" + header(nodeObs))
	if _, err := node.Submit(context.Background(), server.JobSpec{Microbench: 4}); err != nil {
		t.Fatal(err)
	}
	out.WriteString("== node, after one job ==\n" + header(nodeObs))

	coObs := obs.New(server.MetricsNamespace, 16, 4, nil)
	local := server.New(server.Options{Workers: 1, Obs: coObs})
	defer drain(local)
	if _, err := New(Options{Peers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Local: local, Obs: coObs}); err != nil {
		t.Fatal(err)
	}
	out.WriteString("== coordinator ==\n" + header(coObs))
	return out.String()
}

// TestExpositionFamiliesUnchanged pins every metric family's name, type
// and help text, so a change to how series are registered cannot rename,
// retype or drop one.
func TestExpositionFamiliesUnchanged(t *testing.T) {
	got := expositionFamilies(t)
	if *updateFamilies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(familiesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(familiesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric families differ from %s (rerun with -update-families only when a family is meant to change):\ngot:\n%s",
			familiesPath, got)
	}
}
