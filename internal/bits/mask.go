// Package bits provides thread-mask utilities for 32-wide warps.
//
// A Mask is a set of lane indices within one warp: bit i is set when
// thread i participates. Masks are the currency of SIMT execution —
// divergence splits a mask into PC-aligned submasks (subwarps), and
// convergence barriers merge them back.
package bits

import (
	"fmt"
	"math/bits"
)

// WarpSize is the number of threads per warp, matching NVIDIA's
// architectures from Tesla through Turing.
const WarpSize = 32

// Mask is a 32-thread lane mask. The zero value is the empty set.
type Mask uint32

// FullMask has all 32 lanes set.
const FullMask Mask = 0xFFFFFFFF

// LaneMask returns a mask with only the given lane set.
// It panics if lane is outside [0, WarpSize).
func LaneMask(lane int) Mask {
	if lane < 0 || lane >= WarpSize {
		panic(fmt.Sprintf("bits: lane %d out of range", lane))
	}
	return Mask(1) << uint(lane)
}

// FirstN returns a mask with lanes [0, n) set.
// It panics if n is outside [0, WarpSize].
func FirstN(n int) Mask {
	if n < 0 || n > WarpSize {
		panic(fmt.Sprintf("bits: lane count %d out of range", n))
	}
	if n == WarpSize {
		return FullMask
	}
	return Mask(1)<<uint(n) - 1
}

// Has reports whether the given lane is set.
func (m Mask) Has(lane int) bool {
	return lane >= 0 && lane < WarpSize && m&(1<<uint(lane)) != 0
}

// Set returns m with the given lane added.
func (m Mask) Set(lane int) Mask { return m | LaneMask(lane) }

// Clear returns m with the given lane removed.
func (m Mask) Clear(lane int) Mask { return m &^ LaneMask(lane) }

// Count returns the number of set lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Empty reports whether no lanes are set.
func (m Mask) Empty() bool { return m == 0 }

// Lowest returns the lowest set lane index, or -1 if the mask is empty.
func (m Mask) Lowest() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(m))
}

// Union returns the set union of m and o.
func (m Mask) Union(o Mask) Mask { return m | o }

// Intersect returns the set intersection of m and o.
func (m Mask) Intersect(o Mask) Mask { return m & o }

// Minus returns the lanes in m that are not in o.
func (m Mask) Minus(o Mask) Mask { return m &^ o }

// Contains reports whether every lane of o is also in m.
func (m Mask) Contains(o Mask) bool { return m&o == o }

// Lanes returns the set lane indices in ascending order.
func (m Mask) Lanes() []int {
	lanes := make([]int, 0, m.Count())
	for w := uint32(m); w != 0; w &= w - 1 {
		lanes = append(lanes, bits.TrailingZeros32(w))
	}
	return lanes
}

// ForEach calls fn for every set lane in ascending order.
func (m Mask) ForEach(fn func(lane int)) {
	for w := uint32(m); w != 0; w &= w - 1 {
		fn(bits.TrailingZeros32(w))
	}
}

// DropLowest returns m with its lowest set lane removed (the empty mask
// stays empty). Together with Lowest it gives hot loops a closure-free
// iteration idiom that visits lanes in the same ascending order as
// ForEach:
//
//	for it := m; !it.Empty(); it = it.DropLowest() {
//		lane := it.Lowest()
//		...
//	}
func (m Mask) DropLowest() Mask { return m & (m - 1) }

// String renders the mask as a hex literal plus population count,
// e.g. "0x0000000f(4)".
func (m Mask) String() string {
	return fmt.Sprintf("0x%08x(%d)", uint32(m), m.Count())
}
