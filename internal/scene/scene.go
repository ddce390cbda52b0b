// Package scene procedurally generates raytracing scenes and cameras.
//
// Scenes stand in for the game content behind the paper's application
// traces (Table II): clustered triangle geometry whose materials select
// hit shaders. The per-thread divergence patterns that drive Subwarp
// Interleaving emerge from real BVH traversals over this geometry — a
// warp's 32 camera rays hit different objects and therefore dispatch
// different shaders, exactly the splintering of Figure 5.
package scene

import (
	"fmt"
	"math"
	"math/rand"

	"subwarpsim/internal/rtcore"
)

// Params configures procedural scene generation.
type Params struct {
	// Seed makes generation deterministic.
	Seed int64
	// Triangles is the primitive count.
	Triangles int
	// Materials is the number of distinct hit-shader materials; rays
	// that miss everything dispatch the miss shader instead.
	Materials int
	// Clusters groups triangles into that many objects. More clusters
	// with mixed materials raises intra-warp divergence; fewer, larger
	// single-material objects keep neighbouring rays convergent.
	Clusters int
	// Extent is the half-width of the scene cube.
	Extent float32
	// MaterialSkew in [0,1] biases material assignment: 0 is uniform,
	// values toward 1 make one material dominate (predominant shader).
	MaterialSkew float64
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	switch {
	case p.Triangles < 0:
		return fmt.Errorf("scene: negative triangle count")
	case p.Materials <= 0:
		return fmt.Errorf("scene: need at least one material")
	case p.Clusters <= 0:
		return fmt.Errorf("scene: need at least one cluster")
	case p.Extent <= 0:
		return fmt.Errorf("scene: non-positive extent")
	case p.MaterialSkew < 0 || p.MaterialSkew > 1:
		return fmt.Errorf("scene: MaterialSkew outside [0,1]")
	}
	return nil
}

// Scene is generated geometry with its acceleration structure.
type Scene struct {
	Params Params
	BVH    *rtcore.BVH
}

// Generate builds a deterministic scene from the parameters.
func Generate(p Params) (*Scene, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))

	centers := make([]rtcore.Vec3, p.Clusters)
	clusterMat := make([]int, p.Clusters)
	for i := range centers {
		centers[i] = rtcore.V(
			(rng.Float32()*2-1)*p.Extent,
			(rng.Float32()*2-1)*p.Extent,
			(rng.Float32()*2-1)*p.Extent*0.5+p.Extent, // in front of camera plane
		)
		clusterMat[i] = pickMaterial(rng, p.Materials, p.MaterialSkew)
	}

	clusterRadius := p.Extent / float32(math.Cbrt(float64(p.Clusters)+1))
	tris := make([]rtcore.Triangle, 0, p.Triangles)
	for i := 0; i < p.Triangles; i++ {
		c := rng.Intn(p.Clusters)
		base := centers[c].Add(rtcore.V(
			(rng.Float32()*2-1)*clusterRadius,
			(rng.Float32()*2-1)*clusterRadius,
			(rng.Float32()*2-1)*clusterRadius,
		))
		size := clusterRadius * (0.2 + rng.Float32()*0.6)
		mat := clusterMat[c]
		// A minority of triangles take a fresh material so even large
		// objects produce some shader mixing at silhouettes.
		if rng.Float64() < 0.15 {
			mat = pickMaterial(rng, p.Materials, p.MaterialSkew)
		}
		tris = append(tris, rtcore.Triangle{
			V0:       base,
			V1:       base.Add(rtcore.V(size*(rng.Float32()-0.3), size*rng.Float32(), size*(rng.Float32()-0.5))),
			V2:       base.Add(rtcore.V(size*rng.Float32(), size*(rng.Float32()-0.3), size*(rng.Float32()-0.5))),
			Material: mat,
		})
	}
	return &Scene{Params: p, BVH: rtcore.NewBVH(tris)}, nil
}

// pickMaterial draws a material index with geometric skew: skew 0 is
// uniform; higher skew concentrates probability on low indices.
func pickMaterial(rng *rand.Rand, materials int, skew float64) int {
	if materials == 1 {
		return 0
	}
	if skew <= 0 {
		return rng.Intn(materials)
	}
	// With probability proportional to (1-skew)^i choose material i.
	p := 0.35 + 0.6*skew
	for i := 0; i < materials-1; i++ {
		if rng.Float64() < p {
			return i
		}
	}
	return materials - 1
}

// Camera shoots primary rays through a pixel grid covering the scene.
type Camera struct {
	Origin     rtcore.Vec3
	lowerLeft  rtcore.Vec3
	horizontal rtcore.Vec3
	vertical   rtcore.Vec3
	Width      int
	Height     int
}

// NewCamera positions a camera on the -Z side of the scene bounds,
// framing the whole extent with a wxh pixel grid.
func NewCamera(bounds rtcore.AABB, w, h int) Camera {
	center := bounds.Centroid()
	span := bounds.Max.Sub(bounds.Min)
	dist := span.Len()
	if dist == 0 {
		dist = 10
	}
	origin := center.Sub(rtcore.V(0, 0, dist*1.2))
	planeW := span.X * 1.1
	planeH := span.Y * 1.1
	if planeW == 0 {
		planeW = 1
	}
	if planeH == 0 {
		planeH = 1
	}
	lowerLeft := center.Sub(rtcore.V(planeW/2, planeH/2, 0))
	return Camera{
		Origin:     origin,
		lowerLeft:  lowerLeft,
		horizontal: rtcore.V(planeW, 0, 0),
		vertical:   rtcore.V(0, planeH, 0),
		Width:      w,
		Height:     h,
	}
}

// PrimaryRay returns the camera ray through pixel index (row-major).
func (c Camera) PrimaryRay(pixel uint32) rtcore.Ray {
	n := uint32(c.Width * c.Height)
	if n == 0 {
		n = 1
	}
	pixel %= n
	x := int(pixel) % c.Width
	y := int(pixel) / c.Width
	u := (float32(x) + 0.5) / float32(c.Width)
	v := (float32(y) + 0.5) / float32(c.Height)
	target := c.lowerLeft.Add(c.horizontal.Scale(u)).Add(c.vertical.Scale(v))
	return rtcore.NewRay(c.Origin, target.Sub(c.Origin))
}

// RayGen returns the ray generator binding ray IDs to rays: ID bits
// [0, pixels) select a pixel; the generation field (id / pixels) greater
// than zero produces stochastically scattered bounce rays, standing in
// for the recursive TraceRay calls of Figure 5.
func (s *Scene) RayGen(cam Camera) rtcore.RayGen {
	pixels := uint32(cam.Width * cam.Height)
	if pixels == 0 {
		pixels = 1
	}
	bounds := s.BVH.Bounds()
	center := bounds.Centroid()
	extent := s.Params.Extent
	return func(id uint32) rtcore.Ray {
		pixel := id % pixels
		gen := id / pixels
		if gen == 0 {
			return cam.PrimaryRay(pixel)
		}
		// Bounce ray: origin jittered near the scene, direction from a
		// deterministic hash of the ID (stochastic scatter).
		h := hash32(id)
		origin := center.Add(rtcore.V(
			unit(h)*extent, unit(h>>8)*extent, unit(h>>16)*extent*0.5,
		))
		dir := rtcore.V(unit(h>>4), unit(h>>12), unit(h>>20)+0.01)
		return rtcore.NewRay(origin, dir)
	}
}

// unit maps byte bits to [-1, 1).
func unit(h uint32) float32 { return float32(h&0xFF)/128 - 1 }

func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7FEB352D
	x ^= x >> 15
	x *= 0x846CA68B
	x ^= x >> 16
	return x
}
