package rtcore

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Hit is the result of a ray traversal, the record the RT core returns
// to the SM.
type Hit struct {
	// Ok reports whether any triangle was hit.
	Ok bool
	// T is the hit distance along the ray.
	T float32
	// Tri is the index of the hit triangle in the BVH's primitive list.
	Tri int
	// Material is the hit triangle's material (shader selector).
	Material int
	// Steps counts BVH node visits performed during traversal; the RT
	// core's latency model charges per step.
	Steps int
}

// bvhNode is one node of the flattened hierarchy. Leaves reference a
// contiguous primitive range; interior nodes reference their right
// child (the left child is always the next node in the array).
type bvhNode struct {
	bounds    AABB
	right     int32 // interior: index of right child; leaves: -1
	firstPrim int32 // leaves: first primitive index
	primCount int32 // leaves: number of primitives; 0 for interior
}

func (n *bvhNode) isLeaf() bool { return n.primCount > 0 }

// maxLeafSize bounds primitives per leaf in median-split construction.
const maxLeafSize = 4

// BVH is a binary bounding volume hierarchy built by median split over
// the longest axis, the classic construction used by the acceleration
// structures DXR drivers build (the "Bounded Volume Hierarchy data
// structures as configured by their respective developers", §IV-B).
//
// The nodes are constructed once, by BuildBVH or — for a NewBVH — by
// the first method that reads them, so a hierarchy no ray ever walks
// (every hit already in a HitTable, or its kernel's result already
// cached) costs a triangle copy. A BVH must not be copied.
type BVH struct {
	tris  []Triangle
	nodes []bvhNode
	depth int
	built sync.Once
}

// sortKey is one primitive's centroid coordinate on the split axis and
// its position in the range being sorted.
type sortKey struct {
	key float32
	idx int32
}

// builder is BuildBVH's scratch: one key and one triangle slot per
// primitive, reused by every node's sort.
type builder struct {
	*BVH
	keys []sortKey
	tmp  []Triangle
}

// NewBVH returns the hierarchy BuildBVH constructs over the given
// triangles, constructed at its first use. The triangle slice is
// copied.
func NewBVH(tris []Triangle) *BVH {
	return &BVH{tris: append([]Triangle(nil), tris...)}
}

// BuildBVH constructs a hierarchy over the given triangles. The
// triangle slice is copied and reordered. An empty scene yields a BVH
// whose traversals always miss in one step.
func BuildBVH(tris []Triangle) *BVH {
	b := NewBVH(tris)
	b.construct()
	return b
}

// construct builds the nodes, reordering the triangles, unless the BVH
// already has some (BuildBVH's, or a hand-assembled hierarchy's).
func (b *BVH) construct() {
	b.built.Do(func() {
		switch {
		case b.nodes != nil:
		case len(b.tris) == 0:
			b.nodes = []bvhNode{{bounds: EmptyAABB(), right: -1, primCount: 0}}
		default:
			b.nodes = make([]bvhNode, 0, 2*len(b.tris))
			bl := builder{BVH: b, keys: make([]sortKey, len(b.tris)), tmp: make([]Triangle, len(b.tris))}
			bl.build(0, len(b.tris), 1)
		}
	})
}

// build emits the subtree over tris[lo:hi) and returns its node index.
func (b *builder) build(lo, hi, depth int) int {
	if depth > b.depth {
		b.depth = depth
	}
	idx := len(b.nodes)
	b.nodes = append(b.nodes, bvhNode{})

	bounds := EmptyAABB()
	centroids := EmptyAABB()
	for i := lo; i < hi; i++ {
		bounds = bounds.Union(b.tris[i].Bounds())
		centroids = centroids.GrowPoint(b.tris[i].Centroid())
	}

	n := hi - lo
	axis := centroids.LongestAxis()
	flatCentroids := centroids.Max.Axis(axis)-centroids.Min.Axis(axis) < 1e-12
	// depth >= 60 force-terminates so traversal's fixed 64-entry stack
	// can never overflow (median split keeps depth ~log2(n) anyway).
	if n <= maxLeafSize || flatCentroids || depth >= 60 {
		b.nodes[idx] = bvhNode{bounds: bounds, right: -1, firstPrim: int32(lo), primCount: int32(n)}
		return idx
	}

	// Sort 8-byte (key, index) pairs and move each triangle once. The
	// comparison is sort.Slice's less on the same values and both sorts
	// are the one pdqsort, so the permutation — ties included — and
	// with it the tree is the one sort.Slice over the triangles built.
	sub, keys, tmp := b.tris[lo:hi], b.keys[:n], b.tmp[:n]
	for i := range sub {
		keys[i] = sortKey{sub[i].Centroid().Axis(axis), int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.key < b.key {
			return -1
		}
		if b.key < a.key {
			return 1
		}
		return 0
	})
	copy(tmp, sub)
	for i, k := range keys {
		sub[i] = tmp[k.idx]
	}
	mid := lo + n/2

	b.build(lo, mid, depth+1) // left child lands at idx+1
	right := b.build(mid, hi, depth+1)
	b.nodes[idx] = bvhNode{bounds: bounds, right: int32(right), primCount: 0}
	return idx
}

// NumTriangles returns the primitive count.
func (b *BVH) NumTriangles() int { return len(b.tris) }

// NumNodes returns the node count.
func (b *BVH) NumNodes() int {
	b.construct()
	return len(b.nodes)
}

// Depth returns the tree depth (1 for a single leaf or empty scene).
func (b *BVH) Depth() int {
	b.construct()
	if b.depth == 0 {
		return 1
	}
	return b.depth
}

// Bounds returns the root bounding box: the union of the triangles'
// bounds, which needs no nodes.
func (b *BVH) Bounds() AABB {
	bounds := EmptyAABB()
	for i := range b.tris {
		bounds = bounds.Union(b.tris[i].Bounds())
	}
	return bounds
}

// Triangle returns primitive i after construction reordering.
func (b *BVH) Triangle(i int) Triangle {
	b.construct()
	return b.tris[i]
}

// Traverse finds the nearest hit along ray r in (tmin, tmax), counting
// node visits in Hit.Steps. Traversal uses an explicit stack (as a
// hardware unit would) and prunes by the best hit found so far.
func (b *BVH) Traverse(r Ray, tmin, tmax float32) Hit {
	b.construct()
	hit := Hit{T: tmax, Tri: -1, Material: -1}
	if len(b.tris) == 0 {
		hit.Steps = 1
		return hit
	}
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		idx := stack[sp]
		node := &b.nodes[idx]
		hit.Steps++
		if !node.bounds.HitRay(r, tmin, hit.T) {
			continue
		}
		if node.isLeaf() {
			for i := node.firstPrim; i < node.firstPrim+node.primCount; i++ {
				if t, ok := b.tris[i].Intersect(r, tmin, hit.T); ok {
					hit.Ok = true
					hit.T = t
					hit.Tri = int(i)
					hit.Material = b.tris[i].Material
				}
			}
			continue
		}
		// Push right then left so the left child (contiguous after its
		// parent) is popped, and therefore visited, first.
		stack[sp] = node.right
		sp++
		stack[sp] = idx + 1
		sp++
	}
	if !hit.Ok {
		hit.T = 0
	}
	return hit
}

// BruteForce intersects the ray against every triangle; used by tests
// as the traversal oracle.
func (b *BVH) BruteForce(r Ray, tmin, tmax float32) Hit {
	b.construct()
	hit := Hit{T: tmax, Tri: -1, Material: -1}
	for i, tri := range b.tris {
		if t, ok := tri.Intersect(r, tmin, hit.T); ok {
			hit.Ok = true
			hit.T = t
			hit.Tri = i
			hit.Material = tri.Material
		}
	}
	if !hit.Ok {
		hit.T = 0
	}
	hit.Steps = len(b.tris)
	return hit
}

// Stats summarizes the hierarchy for reports.
func (b *BVH) Stats() string {
	b.construct()
	return fmt.Sprintf("BVH{tris=%d nodes=%d depth=%d}", len(b.tris), len(b.nodes), b.Depth())
}

// Validate checks structural invariants: every child index in range,
// every leaf range within primitives, every child's bounds inside its
// parent's (with epsilon), and all primitives covered exactly once.
func (b *BVH) Validate() error {
	b.construct()
	if len(b.nodes) == 0 {
		return fmt.Errorf("rtcore: BVH has no nodes")
	}
	covered := make([]bool, len(b.tris))
	var walk func(idx int32, parent AABB) error
	walk = func(idx int32, parent AABB) error {
		if idx < 0 || int(idx) >= len(b.nodes) {
			return fmt.Errorf("rtcore: node index %d out of range", idx)
		}
		n := &b.nodes[idx]
		if len(b.tris) > 0 && !aabbInside(n.bounds, parent) {
			return fmt.Errorf("rtcore: node %d bounds escape parent", idx)
		}
		if n.right < 0 && n.primCount == 0 {
			return nil // empty-scene sentinel leaf
		}
		if n.isLeaf() {
			for i := n.firstPrim; i < n.firstPrim+n.primCount; i++ {
				if i < 0 || int(i) >= len(b.tris) {
					return fmt.Errorf("rtcore: leaf %d prim %d out of range", idx, i)
				}
				if covered[i] {
					return fmt.Errorf("rtcore: prim %d covered twice", i)
				}
				covered[i] = true
				if !aabbInside(b.tris[i].Bounds(), n.bounds) {
					return fmt.Errorf("rtcore: prim %d escapes leaf %d", i, idx)
				}
			}
			return nil
		}
		if err := walk(idx+1, n.bounds); err != nil {
			return err
		}
		return walk(n.right, n.bounds)
	}
	root := EmptyAABB()
	if len(b.tris) > 0 {
		root = b.nodes[0].bounds
	}
	if err := walk(0, root); err != nil {
		return err
	}
	for i, c := range covered {
		if !c {
			return fmt.Errorf("rtcore: prim %d not covered by any leaf", i)
		}
	}
	return nil
}

func aabbInside(inner, outer AABB) bool {
	const eps = 1e-4
	return inner.Min.X >= outer.Min.X-eps && inner.Min.Y >= outer.Min.Y-eps &&
		inner.Min.Z >= outer.Min.Z-eps && inner.Max.X <= outer.Max.X+eps &&
		inner.Max.Y <= outer.Max.Y+eps && inner.Max.Z <= outer.Max.Z+eps
}

// InfinityT is a convenient tmax for camera rays.
const InfinityT = float32(math.MaxFloat32)
