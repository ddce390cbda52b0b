package subwarpsim

import (
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/scene"
)

// The raytracing substrate is exported so applications can generate
// scenes, build acceleration structures and trace rays directly — the
// same BVH traversal that the simulated RT core executes on behalf of
// the TRACE instruction.

// Vec3 is a 3-component single-precision vector.
type Vec3 = rtcore.Vec3

// V constructs a Vec3.
func V(x, y, z float32) Vec3 { return rtcore.V(x, y, z) }

// Ray is a half-line through the scene.
type Ray = rtcore.Ray

// NewRay builds a ray with a normalized direction.
func NewRay(origin, dir Vec3) Ray { return rtcore.NewRay(origin, dir) }

// Triangle is a scene primitive carrying a material (shader selector).
type Triangle = rtcore.Triangle

// Hit is a traversal result: hit distance, primitive, material, and the
// node-visit count that drives the RT core's latency model.
type Hit = rtcore.Hit

// BVH is a bounding volume hierarchy over triangles.
type BVH = rtcore.BVH

// BuildBVH constructs a hierarchy by median split.
func BuildBVH(tris []Triangle) *BVH { return rtcore.BuildBVH(tris) }

// HitTable remembers each ray's hit for a kernel (Kernel.Hits) so that
// runs tracing the same ray IDs traverse each ray once. It belongs to
// one (BVH, RayGen) pair and never changes a result.
type HitTable = rtcore.HitTable

// NewHitTable returns an empty table for ray IDs below rays.
func NewHitTable(rays int) HitTable { return rtcore.NewHitTable(rays) }

// MissMaterial is the material reported for rays that hit nothing.
const MissMaterial = rtcore.MissMaterial

// InfinityT is a convenient tmax for camera rays.
const InfinityT = rtcore.InfinityT

// SceneParams configures procedural scene generation.
type SceneParams = scene.Params

// Scene is generated geometry with its acceleration structure.
type Scene = scene.Scene

// GenerateScene builds a deterministic procedural scene.
func GenerateScene(p SceneParams) (*Scene, error) { return scene.Generate(p) }

// Camera shoots primary rays through a pixel grid.
type Camera = scene.Camera

// NewCamera frames the given bounds with a w x h pixel grid.
func NewCamera(bvh *BVH, w, h int) Camera { return scene.NewCamera(bvh.Bounds(), w, h) }
