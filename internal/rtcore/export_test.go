package rtcore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// RandomScene lets the external tests build the internal tests' scenes.
var RandomScene = randomScene

// StructuralDigest hashes everything BuildBVH decides: every node's
// bounds bits, right, firstPrim and primCount in node order, then the
// reordered primitives' vertex and material bits. Two hierarchies with
// one digest traverse every ray in the same steps.
func (b *BVH) StructuralDigest() string {
	b.construct()
	h := sha256.New()
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	vec := func(v Vec3) {
		u32(math.Float32bits(v.X))
		u32(math.Float32bits(v.Y))
		u32(math.Float32bits(v.Z))
	}
	for _, n := range b.nodes {
		vec(n.bounds.Min)
		vec(n.bounds.Max)
		u32(uint32(n.right))
		u32(uint32(n.firstPrim))
		u32(uint32(n.primCount))
	}
	for _, t := range b.tris {
		vec(t.V0)
		vec(t.V1)
		vec(t.V2)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Material))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
