package rtcore_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/bvh_digests.json from the current BuildBVH")

const digestFile = "testdata/bvh_digests.json"

// tieScene builds n triangles whose centroids fall on a coarse lattice
// of the given pitch per axis (0 flattens the axis), so the build's
// sort sees long runs of equal keys: which of two tied triangles lands
// left of the median is decided by the sort's permutation alone.
func tieScene(seed int64, n int, pitch [3]float32) []rtcore.Triangle {
	rng := rand.New(rand.NewSource(seed))
	tris := make([]rtcore.Triangle, n)
	for i := range tris {
		c := rtcore.V(pitch[0]*float32(rng.Intn(4)), pitch[1]*float32(rng.Intn(4)), pitch[2]*float32(rng.Intn(4)))
		// The three offsets sum to zero, so every triangle at one
		// lattice point has that point as its centroid.
		d := rtcore.V(float32(1+rng.Intn(3)), float32(rng.Intn(3)), float32(rng.Intn(2)))
		e := rtcore.V(float32(rng.Intn(2)), float32(1+rng.Intn(3)), float32(rng.Intn(3)))
		tris[i] = rtcore.Triangle{
			V0: c.Add(d), V1: c.Add(e), V2: c.Sub(d).Sub(e),
			Material: i % 7,
		}
	}
	return tris
}

// randomTris is n unrelated triangles.
func randomTris(seed int64, n int) []rtcore.Triangle {
	return rtcore.RandomScene(rand.New(rand.NewSource(seed)), n)
}

// TestBVHMatchesPinnedDigests holds BuildBVH to the hierarchies the
// reflective sort.Slice build produced — node for node, primitive for
// primitive — for the ten Table II scenes and for inputs where ties
// decide the tree: duplicate centroids, a flat axis, and the counts
// around the leaf size. Every Hit.Steps, hence every RT latency, cycle
// count and golden, rests on these trees.
func TestBVHMatchesPinnedDigests(t *testing.T) {
	got := map[string]string{}
	for _, app := range workload.Apps() {
		k, err := workload.Megakernel(app)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.BVH.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		got[app.Name] = k.BVH.StructuralDigest()
	}
	inputs := map[string][]rtcore.Triangle{
		"dup-centroids-64":   tieScene(1, 64, [3]float32{8, 4, 2}),
		"dup-centroids-700":  tieScene(2, 700, [3]float32{8, 4, 2}),
		"flat-axis-x-300":    tieScene(3, 300, [3]float32{0, 4, 8}),
		"flat-axes-xy-120":   tieScene(4, 120, [3]float32{0, 0, 8}),
		"one-centroid-40":    tieScene(5, 40, [3]float32{0, 0, 0}),
		"equal-extents-200":  tieScene(6, 200, [3]float32{4, 4, 4}),
		"identical-tris-33":  make([]rtcore.Triangle, 33),
		"random-2000-seed-9": randomTris(9, 2000),
	}
	for _, n := range []int{0, 1, 4, 5, 9} {
		inputs[fmt.Sprintf("random-%d", n)] = randomTris(int64(20+n), n)
	}
	for name, tris := range inputs {
		bvh := rtcore.BuildBVH(tris)
		if err := bvh.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = bvh.StructuralDigest()
	}

	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: BVH changed: digest %s, pinned %s", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d hierarchies, the test builds %d", digestFile, len(want), len(got))
	}
}
