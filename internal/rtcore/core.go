package rtcore

import "sync/atomic"

// MissMaterial is the material index reported for rays that hit
// nothing; the megakernel dispatches its miss shader on it.
const MissMaterial = -1

// RayGen produces the ray for a given ray ID. Workloads bind camera
// rays and stochastically scattered bounce rays to IDs so the TRACE
// instruction's operand (a ray ID register) fully determines the ray.
type RayGen func(id uint32) Ray

// HitTable remembers what traversing a ray found, one word per ray ID:
// steps<<16 | (material+1), zero while the ray is untraced (a traversal
// takes at least one step). The hit for a ray is a pure function of
// (scene, ray ID), so a table belongs to one (BVH, RayGen) pair, may be
// shared by any number of runs, concurrent ones included, and never
// changes a result: an ID past its end, or a hit whose steps or
// material do not fit 16 bits, is simply traversed every time.
type HitTable []atomic.Uint32

// NewHitTable returns an empty table for ray IDs below rays.
func NewHitTable(rays int) HitTable { return make(HitTable, rays) }

// Core models one SM's RT-core: the SM enqueues TraceRay operations and
// the core answers after a latency proportional to the number of BVH
// nodes the traversal visits.
type Core struct {
	bvh     *BVH
	gen     RayGen
	hits    HitTable // optional
	base    int64    // fixed overhead per trace (SM<->RT-core round trip)
	perStep int64    // cycles per BVH node visit
}

// NewCore builds an RT-core over the given hierarchy and ray generator.
// baseLatency is the fixed round-trip cost and stepLatency the cycles
// charged per traversal step. hits may be nil.
func NewCore(bvh *BVH, gen RayGen, hits HitTable, baseLatency, stepLatency int64) *Core {
	return &Core{bvh: bvh, gen: gen, hits: hits, base: baseLatency, perStep: stepLatency}
}

// Trace answers the TraceRay for rayID: the hit triangle's material
// (MissMaterial for a miss), the BVH node visits the traversal took,
// and the modeled latency in cycles. It traverses only when the table
// does not already hold the ray.
func (c *Core) Trace(rayID uint32) (material, steps int, latency int64) {
	inTable := uint64(rayID) < uint64(len(c.hits))
	var w uint32
	if inTable {
		w = c.hits[rayID].Load()
	}
	if w != 0 {
		material, steps = int(w&0xffff)-1, int(w>>16)
	} else {
		hit := c.bvh.Traverse(c.gen(rayID), 1e-4, InfinityT)
		material, steps = hit.Material, hit.Steps
		if inTable && uint(steps) <= 0xffff && uint(material+1) <= 0xffff {
			c.hits[rayID].Store(uint32(steps)<<16 | uint32(material+1))
		}
	}
	return material, steps, c.base + c.perStep*int64(steps)
}
