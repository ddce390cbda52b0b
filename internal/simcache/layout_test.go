package simcache

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// TestKeyOfUnchangedByLayout pins the content address of one kernel of
// every generator family under the default configuration. A key hashes
// the memory image's fingerprint, so these constants hold only while
// Memory.Fingerprint is a function of the written (address, value) set
// alone — however the image is stored. A changed constant orphans every
// disk cache written before it.
func TestKeyOfUnchangedByLayout(t *testing.T) {
	micro := func() (*sm.Kernel, error) { return workload.Microbench(workload.DefaultMicrobench(32)) }
	ctrl := func() (*sm.Kernel, error) {
		p, err := workload.ProfileByName("Ctrl")
		if err != nil {
			return nil, err
		}
		return workload.Megakernel(p)
	}
	gen := func(name string) func() (*sm.Kernel, error) {
		return func() (*sm.Kernel, error) { return workload.BuildByName(name) }
	}
	for _, tc := range []struct {
		id    string
		build func() (*sm.Kernel, error)
		want  string
	}{
		{"gen/gemm", gen("gemm"), "797479cbed19d4d88600e13b5753357d8112f591af14e6bb6ce13545437b5422"},
		{"gen/bfs", gen("bfs"), "34dc1c22e55849bc17222af396a5d165ca8a32fd68bacb6b551621d4547a5484"},
		{"gen/texture", gen("texture"), "b930b1aa334628d8cfa6dd0c160b4d7e31adae6be3de01801afc3f577178563d"},
		{"micro/32", micro, "214f979acbacd3a3eedfdc8cd50dc92636e810572b0f9e534791c9a5a6f14e9a"},
		{"app/Ctrl", ctrl, "f8447f6acfe076bf70c30ddf87ddc29e671a8b773d2c35031bd4260683494407"},
	} {
		k, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if got := KeyOf(config.Default(), k, tc.id).String(); got != tc.want {
			t.Errorf("KeyOf(%s) = %s, want %s", tc.id, got, tc.want)
		}
	}
}
