package rtcore

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, 5, 6)
	if got := a.Add(b); got != V(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); got != V(0, 0, 1) {
		t.Errorf("Cross = %v, want (0,0,1)", got)
	}
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	n := V(0, 0, 10).Normalize()
	if math.Abs(float64(n.Len())-1) > 1e-6 || n.Z != 1 {
		t.Errorf("Normalize = %v", n)
	}
	if got := V(0, 0, 0).Normalize(); got != V(0, 0, 0) {
		t.Errorf("Normalize zero = %v", got)
	}
	if got := a.Min(V(2, 1, 5)); got != V(1, 1, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(V(2, 1, 5)); got != V(2, 2, 5) {
		t.Errorf("Max = %v", got)
	}
	for i, want := range []float32{1, 2, 3} {
		if got := a.Axis(i); got != want {
			t.Errorf("Axis(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestRayAt(t *testing.T) {
	r := NewRay(V(0, 0, 0), V(0, 0, 2))
	if got := r.At(3); got != V(0, 0, 3) {
		t.Errorf("At = %v (direction must be normalized)", got)
	}
}

func TestAABBHitRay(t *testing.T) {
	box := AABB{Min: V(-1, -1, -1), Max: V(1, 1, 1)}
	cases := []struct {
		name string
		ray  Ray
		want bool
	}{
		{"through center", NewRay(V(0, 0, -5), V(0, 0, 1)), true},
		{"away", NewRay(V(0, 0, -5), V(0, 0, -1)), false},
		{"miss offset", NewRay(V(5, 5, -5), V(0, 0, 1)), false},
		{"diagonal hit", NewRay(V(-5, -5, -5), V(1, 1, 1)), true},
		{"from inside", NewRay(V(0, 0, 0), V(1, 0, 0)), true},
		{"axis-parallel skim outside", NewRay(V(2, 0, -5), V(0, 0, 1)), false},
	}
	for _, c := range cases {
		if got := box.HitRay(c.ray, 1e-4, InfinityT); got != c.want {
			t.Errorf("%s: HitRay = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAABBOps(t *testing.T) {
	a := AABB{Min: V(0, 0, 0), Max: V(1, 1, 1)}
	b := AABB{Min: V(2, 2, 2), Max: V(3, 3, 3)}
	u := a.Union(b)
	if u.Min != V(0, 0, 0) || u.Max != V(3, 3, 3) {
		t.Errorf("Union = %v", u)
	}
	if got := a.Centroid(); got != V(0.5, 0.5, 0.5) {
		t.Errorf("Centroid = %v", got)
	}
	if !a.Contains(V(0.5, 0.5, 0.5)) || a.Contains(V(2, 0, 0)) {
		t.Error("Contains wrong")
	}
	if got := a.SurfaceArea(); got != 6 {
		t.Errorf("SurfaceArea = %v, want 6", got)
	}
	if EmptyAABB().SurfaceArea() != 0 {
		t.Error("empty box must have zero area")
	}
	wide := AABB{Min: V(0, 0, 0), Max: V(10, 1, 2)}
	if wide.LongestAxis() != 0 {
		t.Errorf("LongestAxis = %d, want 0", wide.LongestAxis())
	}
	empty := EmptyAABB()
	grown := empty.GrowPoint(V(1, 2, 3))
	if grown.Min != V(1, 2, 3) || grown.Max != V(1, 2, 3) {
		t.Errorf("GrowPoint from empty = %v", grown)
	}
}

func TestTriangleIntersect(t *testing.T) {
	tri := Triangle{V0: V(-1, -1, 0), V1: V(1, -1, 0), V2: V(0, 1, 0), Material: 3}
	// Straight-on hit through the centroid.
	if d, ok := tri.Intersect(NewRay(V(0, 0, -2), V(0, 0, 1)), 1e-4, InfinityT); !ok || math.Abs(float64(d)-2) > 1e-5 {
		t.Errorf("center hit: d=%v ok=%v", d, ok)
	}
	// Miss outside the triangle.
	if _, ok := tri.Intersect(NewRay(V(5, 5, -2), V(0, 0, 1)), 1e-4, InfinityT); ok {
		t.Error("offset ray should miss")
	}
	// Behind the origin.
	if _, ok := tri.Intersect(NewRay(V(0, 0, -2), V(0, 0, -1)), 1e-4, InfinityT); ok {
		t.Error("backwards ray should miss")
	}
	// Parallel to the plane.
	if _, ok := tri.Intersect(NewRay(V(0, 0, 1), V(1, 0, 0)), 1e-4, InfinityT); ok {
		t.Error("parallel ray should miss")
	}
	// tmax clipping.
	if _, ok := tri.Intersect(NewRay(V(0, 0, -2), V(0, 0, 1)), 1e-4, 1.0); ok {
		t.Error("hit beyond tmax should be rejected")
	}
	// Bounds and centroid.
	bb := tri.Bounds()
	if bb.Min != V(-1, -1, 0) || bb.Max != V(1, 1, 0) {
		t.Errorf("Bounds = %v", bb)
	}
	c := tri.Centroid()
	if math.Abs(float64(c.X)) > 1e-6 || math.Abs(float64(c.Y+1.0/3.0)) > 1e-6 {
		t.Errorf("Centroid = %v", c)
	}
}

// randomScene builds n random triangles in the unit-ish cube.
func randomScene(rng *rand.Rand, n int) []Triangle {
	tris := make([]Triangle, n)
	for i := range tris {
		base := V(rng.Float32()*10-5, rng.Float32()*10-5, rng.Float32()*10-5)
		tris[i] = Triangle{
			V0:       base,
			V1:       base.Add(V(rng.Float32(), rng.Float32(), rng.Float32())),
			V2:       base.Add(V(rng.Float32(), rng.Float32(), rng.Float32())),
			Material: rng.Intn(8),
		}
	}
	return tris
}

func TestBVHBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 4, 5, 17, 100, 333} {
		bvh := BuildBVH(randomScene(rng, n))
		if bvh.NumTriangles() != n {
			t.Fatalf("n=%d: NumTriangles = %d", n, bvh.NumTriangles())
		}
		if err := bvh.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > maxLeafSize && bvh.Depth() < 2 {
			t.Errorf("n=%d: depth = %d, expected an actual tree", n, bvh.Depth())
		}
		if bvh.Stats() == "" {
			t.Error("empty Stats")
		}
	}
}

func TestBVHMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bvh := BuildBVH(randomScene(rng, 200))
	misses, hits := 0, 0
	for i := 0; i < 500; i++ {
		origin := V(rng.Float32()*20-10, rng.Float32()*20-10, rng.Float32()*20-10)
		dir := V(rng.Float32()*2-1, rng.Float32()*2-1, rng.Float32()*2-1)
		if dir.Len() == 0 {
			continue
		}
		ray := NewRay(origin, dir)
		got := bvh.Traverse(ray, 1e-4, InfinityT)
		want := bvh.BruteForce(ray, 1e-4, InfinityT)
		if got.Ok != want.Ok {
			t.Fatalf("ray %d: hit mismatch got %v want %v", i, got.Ok, want.Ok)
		}
		if got.Ok {
			hits++
			if math.Abs(float64(got.T-want.T)) > 1e-3 {
				t.Fatalf("ray %d: T mismatch got %v want %v", i, got.T, want.T)
			}
			if got.Material != want.Material {
				// Same T can belong to overlapping triangles with
				// different materials; only flag clear mismatches.
				if math.Abs(float64(got.T-want.T)) > 1e-5 {
					t.Fatalf("ray %d: material mismatch", i)
				}
			}
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate test: hits=%d misses=%d", hits, misses)
	}
}

func TestBVHTraversalCheaperThanBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bvh := BuildBVH(randomScene(rng, 1000))
	var bvhSteps, bruteSteps int
	for i := 0; i < 200; i++ {
		ray := NewRay(
			V(rng.Float32()*20-10, rng.Float32()*20-10, -20),
			V(rng.Float32()-0.5, rng.Float32()-0.5, 1),
		)
		bvhSteps += bvh.Traverse(ray, 1e-4, InfinityT).Steps
		bruteSteps += bvh.BruteForce(ray, 1e-4, InfinityT).Steps
	}
	if bvhSteps*2 >= bruteSteps {
		t.Errorf("BVH not pruning: %d steps vs brute %d", bvhSteps, bruteSteps)
	}
}

func TestEmptyBVHTraversal(t *testing.T) {
	bvh := BuildBVH(nil)
	hit := bvh.Traverse(NewRay(V(0, 0, 0), V(0, 0, 1)), 1e-4, InfinityT)
	if hit.Ok || hit.Steps != 1 || hit.Material != -1 {
		t.Errorf("empty scene hit = %+v", hit)
	}
	if err := bvh.Validate(); err != nil {
		t.Errorf("empty BVH should validate: %v", err)
	}
}

func TestCoreLatencyAndMemo(t *testing.T) {
	tris := []Triangle{
		{V0: V(-1, -1, 5), V1: V(1, -1, 5), V2: V(0, 1, 5), Material: 2},
		{V0: V(-1, -1, -5), V1: V(1, -1, -5), V2: V(0, 1, -5), Material: 1 << 16},
	}
	bvh := BuildBVH(tris)
	traversals := 0
	gen := func(id uint32) Ray {
		traversals++
		switch id {
		case 0:
			return NewRay(V(0, 0, 0), V(0, 0, 1)) // hits material 2
		case 1:
			return NewRay(V(0, 0, 0), V(0, 1, 0)) // miss
		default:
			return NewRay(V(0, 0, 0), V(0, 0, -1)) // hits the material no table word holds
		}
	}
	// check traces id on a core over b and holds the answer to a plain
	// traversal's, and whether the core traversed to what is expected.
	b := bvh
	check := func(core *Core, id uint32, traverses bool) {
		t.Helper()
		h := b.Traverse(gen(id), 1e-4, InfinityT)
		wantMat, wantSteps := h.Material, h.Steps
		before := traversals
		mat, steps, lat := core.Trace(id)
		if mat != wantMat || steps != wantSteps || lat != 200+24*int64(wantSteps) {
			t.Errorf("ray %d: material %d steps %d latency %d, want %d, %d, base+steps*per",
				id, mat, steps, lat, wantMat, wantSteps)
		}
		if got := traversals > before; got != traverses {
			t.Errorf("ray %d: traversed = %v, want %v", id, got, traverses)
		}
	}
	if h := bvh.Traverse(gen(1), 1e-4, InfinityT); h.Ok || h.Material != MissMaterial {
		t.Fatalf("ray 1 should miss: %+v", h)
	}

	// No table: every trace traverses.
	bare := NewCore(bvh, gen, nil, 200, 24)
	check(bare, 0, true)
	check(bare, 0, true)

	// A table answers a ray's second trace, for a second core too; IDs
	// past its end and values that do not fit a word keep traversing.
	hits := NewHitTable(3)
	core := NewCore(bvh, gen, hits, 200, 24)
	for _, id := range []uint32{0, 1} {
		check(core, id, true)
		check(core, id, false)
		check(NewCore(bvh, gen, hits, 200, 24), id, false)
	}
	check(core, 2, true)
	check(core, 2, true)
	if hits[2].Load() != 0 {
		t.Errorf("material %d stored as %#x", 1<<16, hits[2].Load())
	}
	check(core, 3, true)
	check(core, 3, true)

	// Nor is a traversal of more than 65535 steps stored: a
	// right-leaning chain of interior nodes around ray 0, each with a
	// leaf its slab test rejects, takes two steps a level.
	const levels = 40000
	around := AABB{Min: V(-1, -1, -1), Max: V(1, 1, 10)}
	aside := AABB{Min: V(5, 5, 5), Max: V(6, 6, 6)}
	b = &BVH{tris: tris[:1]}
	for i := 0; i < levels; i++ {
		b.nodes = append(b.nodes,
			bvhNode{bounds: around, right: int32(2*i + 2)},
			bvhNode{bounds: aside, right: -1, primCount: 1})
	}
	b.nodes = append(b.nodes, bvhNode{bounds: aside, right: -1, primCount: 1})
	hits = NewHitTable(1)
	core = NewCore(b, gen, hits, 200, 24)
	check(core, 0, true)
	check(core, 0, true)
	if _, steps, _ := core.Trace(0); steps != 2*levels+1 || hits[0].Load() != 0 {
		t.Errorf("chain: %d steps, table word %#x", steps, hits[0].Load())
	}
}

// TestNewBVHConstructsAtFirstUse: a NewBVH has no nodes until something
// reads them — its bounds and triangle count do not — and then is the
// hierarchy BuildBVH builds, also when several goroutines are first at
// once (the race detector watches a kernel's BVH shared by concurrent
// runs).
func TestNewBVHConstructsAtFirstUse(t *testing.T) {
	tris := randomScene(rand.New(rand.NewSource(5)), 300)
	eager, lazy := BuildBVH(tris), NewBVH(tris)
	if lazy.Bounds() != eager.Bounds() || lazy.NumTriangles() != eager.NumTriangles() {
		t.Errorf("bounds %v over %d triangles, BuildBVH's %v over %d",
			lazy.Bounds(), lazy.NumTriangles(), eager.Bounds(), eager.NumTriangles())
	}
	if eager.Bounds() != eager.nodes[0].bounds {
		t.Errorf("Bounds() = %v, the root node's are %v", eager.Bounds(), eager.nodes[0].bounds)
	}
	if lazy.nodes != nil {
		t.Fatal("NewBVH, Bounds or NumTriangles constructed the nodes")
	}
	r := NewRay(V(0, 0, -20), V(0.1, 0.05, 1))
	want := eager.Traverse(r, 1e-4, InfinityT)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := lazy.Traverse(r, 1e-4, InfinityT); got != want {
				t.Errorf("first traversal found %+v, BuildBVH's tree %+v", got, want)
			}
		}()
	}
	wg.Wait()
	if lazy.StructuralDigest() != eager.StructuralDigest() {
		t.Error("the hierarchy constructed at first use is not BuildBVH's")
	}
}

// Property: traversal and brute force agree on hit/miss for arbitrary
// rays against a fixed random scene.
func TestQuickTraversalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bvh := BuildBVH(randomScene(rng, 64))
	f := func(ox, oy, oz, dx, dy, dz int8) bool {
		dir := V(float32(dx), float32(dy), float32(dz))
		if dir.Len() == 0 {
			return true
		}
		ray := NewRay(V(float32(ox)/8, float32(oy)/8, float32(oz)/8), dir)
		got := bvh.Traverse(ray, 1e-4, InfinityT)
		want := bvh.BruteForce(ray, 1e-4, InfinityT)
		if got.Ok != want.Ok {
			return false
		}
		return !got.Ok || math.Abs(float64(got.T-want.T)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
