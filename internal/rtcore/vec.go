// Package rtcore implements the RT-core substrate: a bounding volume
// hierarchy (BVH) over triangles with ray traversal, plus the RT-core
// timing model the SM's TRACE instruction offloads to.
//
// The paper's RT cores accelerate BVH traversal in hardware, returning
// hit/miss records to the SM and letting the SM overlap other work
// (Section II-B). Here the traversal is computed functionally — real
// AABB slab tests and Möller–Trumbore triangle intersection — and its
// step count (node visits) drives the modeled traversal latency, so
// scenes with deeper hierarchies genuinely take longer, reproducing the
// Amdahl effect the paper identifies (Section VI, second limiter).
package rtcore

import "math"

// Vec3 is a 3-component single-precision vector.
type Vec3 struct{ X, Y, Z float32 }

// V constructs a Vec3.
func V(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float32) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length.
func (a Vec3) Len() float32 { return float32(math.Sqrt(float64(a.Dot(a)))) }

// Normalize returns a unit vector in a's direction; the zero vector is
// returned unchanged.
func (a Vec3) Normalize() Vec3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Min returns the component-wise minimum.
func (a Vec3) Min(b Vec3) Vec3 {
	return Vec3{min32(a.X, b.X), min32(a.Y, b.Y), min32(a.Z, b.Z)}
}

// Max returns the component-wise maximum.
func (a Vec3) Max(b Vec3) Vec3 {
	return Vec3{max32(a.X, b.X), max32(a.Y, b.Y), max32(a.Z, b.Z)}
}

// Axis returns component i (0=X, 1=Y, 2=Z).
func (a Vec3) Axis(i int) float32 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	default:
		return a.Z
	}
}

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// Ray is a half-line with precomputed inverse direction for slab tests.
type Ray struct {
	Origin Vec3
	Dir    Vec3
	invDir Vec3
}

// NewRay builds a ray; dir is normalized.
func NewRay(origin, dir Vec3) Ray {
	d := dir.Normalize()
	inv := Vec3{invComp(d.X), invComp(d.Y), invComp(d.Z)}
	return Ray{Origin: origin, Dir: d, invDir: inv}
}

func invComp(c float32) float32 {
	if c == 0 {
		return float32(math.Inf(1))
	}
	return 1 / c
}

// At returns the point origin + t*dir.
func (r Ray) At(t float32) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }

// AABB is an axis-aligned bounding box.
type AABB struct{ Min, Max Vec3 }

// EmptyAABB returns an inverted box that unions correctly.
func EmptyAABB() AABB {
	inf := float32(math.Inf(1))
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Union returns the smallest box containing both a and b.
func (a AABB) Union(b AABB) AABB {
	return AABB{Min: a.Min.Min(b.Min), Max: a.Max.Max(b.Max)}
}

// GrowPoint returns the box expanded to contain p.
func (a AABB) GrowPoint(p Vec3) AABB {
	return AABB{Min: a.Min.Min(p), Max: a.Max.Max(p)}
}

// Centroid returns the box center.
func (a AABB) Centroid() Vec3 { return a.Min.Add(a.Max).Scale(0.5) }

// Contains reports whether p is inside the box (inclusive).
func (a AABB) Contains(p Vec3) bool {
	return p.X >= a.Min.X && p.X <= a.Max.X &&
		p.Y >= a.Min.Y && p.Y <= a.Max.Y &&
		p.Z >= a.Min.Z && p.Z <= a.Max.Z
}

// LongestAxis returns the axis index (0..2) of the widest extent.
func (a AABB) LongestAxis() int {
	d := a.Max.Sub(a.Min)
	if d.X >= d.Y && d.X >= d.Z {
		return 0
	}
	if d.Y >= d.Z {
		return 1
	}
	return 2
}

// HitRay performs the slab test against ray r in [tmin, tmax]. The
// three axes are unrolled by hand — this is the hottest function in
// RT-heavy simulations — with the arithmetic kept in exactly the
// per-axis order of the textbook loop, so hit results (and therefore
// traversal step counts and simulated cycles) are unchanged.
func (a AABB) HitRay(r Ray, tmin, tmax float32) bool {
	t0 := (a.Min.X - r.Origin.X) * r.invDir.X
	t1 := (a.Max.X - r.Origin.X) * r.invDir.X
	if r.invDir.X < 0 {
		t0, t1 = t1, t0
	}
	if t0 > tmin {
		tmin = t0
	}
	if t1 < tmax {
		tmax = t1
	}
	if tmax < tmin {
		return false
	}

	t0 = (a.Min.Y - r.Origin.Y) * r.invDir.Y
	t1 = (a.Max.Y - r.Origin.Y) * r.invDir.Y
	if r.invDir.Y < 0 {
		t0, t1 = t1, t0
	}
	if t0 > tmin {
		tmin = t0
	}
	if t1 < tmax {
		tmax = t1
	}
	if tmax < tmin {
		return false
	}

	t0 = (a.Min.Z - r.Origin.Z) * r.invDir.Z
	t1 = (a.Max.Z - r.Origin.Z) * r.invDir.Z
	if r.invDir.Z < 0 {
		t0, t1 = t1, t0
	}
	if t0 > tmin {
		tmin = t0
	}
	if t1 < tmax {
		tmax = t1
	}
	return tmax >= tmin
}

// Triangle is a scene primitive carrying a material index; the material
// selects which shader the megakernel invokes on a hit.
type Triangle struct {
	V0, V1, V2 Vec3
	Material   int
}

// Bounds returns the triangle's bounding box.
func (t Triangle) Bounds() AABB {
	return EmptyAABB().GrowPoint(t.V0).GrowPoint(t.V1).GrowPoint(t.V2)
}

// Centroid returns the triangle centroid.
func (t Triangle) Centroid() Vec3 {
	return t.V0.Add(t.V1).Add(t.V2).Scale(1.0 / 3.0)
}

// epsilon for Möller–Trumbore degeneracy checks.
const mtEpsilon = 1e-7

// Intersect runs Möller–Trumbore: it returns the hit distance and true
// if ray r hits the triangle at t in (tmin, tmax).
func (t Triangle) Intersect(r Ray, tmin, tmax float32) (float32, bool) {
	e1 := t.V1.Sub(t.V0)
	e2 := t.V2.Sub(t.V0)
	p := r.Dir.Cross(e2)
	det := e1.Dot(p)
	if det > -mtEpsilon && det < mtEpsilon {
		return 0, false // ray parallel to triangle plane
	}
	invDet := 1 / det
	s := r.Origin.Sub(t.V0)
	u := s.Dot(p) * invDet
	if u < 0 || u > 1 {
		return 0, false
	}
	q := s.Cross(e1)
	v := r.Dir.Dot(q) * invDet
	if v < 0 || u+v > 1 {
		return 0, false
	}
	d := e2.Dot(q) * invDet
	if d <= tmin || d >= tmax {
		return 0, false
	}
	return d, true
}
