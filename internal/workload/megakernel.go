package workload

import (
	"fmt"

	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/scene"
	"subwarpsim/internal/sm"
)

// AppProfile parameterizes a synthetic raytracing megakernel standing
// in for one of the paper's application traces (Table II). The profile
// controls the knobs that determine the Fig. 3 characterisation —
// where load-to-use stalls occur (convergent prologue vs divergent
// shaders), how much math hides them, traversal weight, occupancy, and
// divergence shape — so the SI speedups *emerge* from the mechanism.
type AppProfile struct {
	Name   string // trace name, e.g. "BFV1"
	App    string // application, e.g. "Battlefield V scene 1"
	Effect string // RT effect: GI-D, AO, R, M

	Seed int64

	// Occupancy.
	RegsPerThread int // kernel register footprint (max across shaders)
	NumWarps      int // warps launched (waves over resident slots)

	// Megakernel structure.
	Iterations int // TraceRay rounds per thread (bounces)
	Shaders    int // distinct hit shaders (materials)

	// Divergent-region memory behaviour (inside hit shaders).
	ShaderLoads   int  // loads per hit shader
	ShaderMath    int  // independent math ops between each load and use
	ShaderTex     bool // alternate loads onto the texture path
	ShaderBufLog2 int  // per-shader buffer size (log2 bytes): smaller = more L1D reuse

	// Convergent-region memory behaviour (megakernel prologue).
	ConvLoads     int // loads before shader dispatch
	ConvMath      int // math ops between each convergent load and use
	ConvBufLog2   int
	ConvCoalesced bool // warp-coherent conv addresses (G-buffer style):
	//  32 lanes share a line, so conv misses do not evict shader data

	// Scene / divergence shape.
	SceneTris     int
	SceneClusters int
	MaterialSkew  float64
}

// Validate reports the first invalid profile field.
func (p AppProfile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile missing name")
	case p.RegsPerThread < 16 || p.RegsPerThread > 255:
		return fmt.Errorf("workload: %s RegsPerThread %d out of range", p.Name, p.RegsPerThread)
	case p.NumWarps <= 0:
		return fmt.Errorf("workload: %s NumWarps must be positive", p.Name)
	case p.Iterations <= 0:
		return fmt.Errorf("workload: %s Iterations must be positive", p.Name)
	case p.Shaders < 1 || p.Shaders > 30:
		return fmt.Errorf("workload: %s Shaders %d out of range", p.Name, p.Shaders)
	case p.ShaderLoads < 0 || p.ConvLoads < 0:
		return fmt.Errorf("workload: %s negative load counts", p.Name)
	case p.ShaderLoads+p.ConvLoads == 0:
		return fmt.Errorf("workload: %s has no memory operations", p.Name)
	case p.ShaderBufLog2 < 7 || p.ShaderBufLog2 > 30:
		return fmt.Errorf("workload: %s ShaderBufLog2 %d out of range", p.Name, p.ShaderBufLog2)
	case p.ConvBufLog2 < 7 || p.ConvBufLog2 > 30:
		return fmt.Errorf("workload: %s ConvBufLog2 %d out of range", p.Name, p.ConvBufLog2)
	case p.SceneTris <= 0 || p.SceneClusters <= 0:
		return fmt.Errorf("workload: %s scene parameters must be positive", p.Name)
	}
	return nil
}

// Buffer base addresses; shader i's buffer starts at shaderBase(i).
const (
	convBufBase   = 0x0200_0000
	shaderBufBase = 0x1000_0000
	shaderBufStep = 0x0100_0000
	addrHashPrime = -1640531527 // 2654435761 as int32 // Knuth multiplicative hash: scatters lanes
)

// Megakernel assembles the raytracing megakernel for a profile,
// generating its scene, BVH and camera. A profile that is one of the
// Table II traces as registered also gets that trace's process-wide hit
// table, so its rays are traversed once per process; every other
// profile gets none.
//
// The kernel follows the structure of Figs. 1 and 5: each iteration
// casts a ray asynchronously via TRACE, performs convergent G-buffer
// style loads that overlap the traversal, consumes the hit record
// (exposing traversal latency, the paper's Amdahl limiter), then
// dispatches per-thread hit/miss shaders through an indirect branch
// under a convergence barrier. Hit shaders perform scattered
// load-to-use chains — the divergent stalls SI targets.
//
// Register map: R0 lane, R1 tid, R2 iter, R3 ray id, R4 hit record,
// R5 BRX target, R6 addr scratch, R7 value, R8 accumulator,
// R9 hash(tid), R10 mask scratch, R12 hash(warp), R13 lane*4.
func Megakernel(p AppProfile) (*sm.Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}

	sc, err := scene.Generate(scene.Params{
		Seed:         p.Seed,
		Triangles:    p.SceneTris,
		Materials:    p.Shaders,
		Clusters:     p.SceneClusters,
		Extent:       60,
		MaterialSkew: p.MaterialSkew,
	})
	if err != nil {
		return nil, err
	}
	totalThreads := p.NumWarps * 32
	camW := 32
	camH := (totalThreads + camW - 1) / camW
	cam := scene.NewCamera(sc.BVH.Bounds(), camW, camH)

	b := isa.NewBuilder(p.Name)
	b.SetRegsPerThread(p.RegsPerThread)

	b.S2R(0, isa.SRLaneID)
	b.S2R(1, isa.SRThreadID)
	b.Imuli(9, 1, addrHashPrime) // per-thread address scatter base
	b.Shr(12, 1, 5)
	b.Imuli(12, 12, addrHashPrime) // per-warp (coalesced) scatter base
	b.Shl(13, 0, 2)                // lane*4: word offset within a line
	b.Movi(2, 0)                   // iteration

	b.Label("loop")
	// ray id = tid + iter*totalThreads (iter > 0 gives bounce rays).
	b.Imuli(3, 2, int32(totalThreads))
	b.Iadd(3, 3, 1)
	b.Trace(4, 3, 0) // TRACE R4 <- ray R3, &wr=sb0

	// Convergent prologue loads (G-buffer/material fetches) overlap the
	// in-flight traversal.
	for j := 0; j < p.ConvLoads; j++ {
		sb := 1 + j%5
		emitScatterLoad(b, convBufBase, p.ConvBufLog2, int32(j), sb, false, p.ConvCoalesced)
		for m := 0; m < p.ConvMath; m++ {
			b.Ffma(8, 8, 8, 8)
		}
		b.Iadd(8, 8, 7).Req(sb) // load-to-use in convergent code
	}

	// Consume the traversal result: the warp stalls here when traversal
	// latency exceeds the prologue (the RT-core Amdahl limiter).
	b.Iadd(8, 8, 4).Req(0)

	// Divergent shader dispatch: target = shaderTable[hit record]. The
	// shader table is line-aligned and each slot is a fixed multiple of the
	// instruction-cache line, so in-shader line breaks land identically
	// in every shader.
	b.Bssy(0, "reconverge")
	shaderLen := measureShaderLen(p)
	b.Imuli(5, 4, int32(shaderLen))
	dispatchBase := alignUp(b.PC()+2, instrsPerLine)
	b.Iaddi(5, 5, int32(dispatchBase))
	b.Brx(5)
	for b.PC() < dispatchBase {
		b.Nop()
	}

	// Shader 0: the miss shader (hit record 0) - cheap, a couple of
	// environment-map style ops. Shaders 1..M: hit shaders with
	// scattered load-to-use chains whose executed path hops across
	// cache lines (emitHitShader), giving the compact synthetic shaders
	// the sparse instruction footprint of real branchy raytracing
	// shaders — the footprint the paper's instruction-cache studies
	// hinge on (Section V-C4 and the Table III taper).
	for s := 0; s <= p.Shaders; s++ {
		start := b.PC()
		if s == 0 {
			b.Fmul(8, 8, 8)
			b.Fadd(8, 8, 7)
			b.Bra("reconverge")
		} else {
			emitHitShader(b, p, s, "reconverge")
		}
		if got := b.PC() - start; got > shaderLen {
			return nil, fmt.Errorf("workload: %s shader %d is %d instrs, budget %d",
				p.Name, s, got, shaderLen)
		}
		for b.PC()-start < shaderLen {
			b.Nop()
		}
	}

	b.Label("reconverge")
	b.Bsync(0)
	b.Iaddi(2, 2, 1)
	b.Isetpi(isa.CmpLT, 0, 2, int32(p.Iterations))
	b.BraP(0, false, "loop")

	// Write the accumulated radiance so the kernel has an architectural
	// result (and functional-equivalence tests have bits to compare).
	b.Shl(6, 1, 2)
	b.Movi(10, 0x0080_0000)
	b.Iadd(6, 6, 10)
	b.Stg(6, 0, 8)
	b.Exit()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &sm.Kernel{
		Program:     prog,
		NumWarps:    p.NumWarps,
		WarpsPerCTA: 4,
		Memory:      mem.NewMemory(),
		BVH:         sc.BVH,
		RayGen:      sc.RayGen(cam),
		Hits:        hitTableFor(p),
	}, nil
}

// emitScatterLoad emits address computation plus a load into R7 from a
// buffer of 2^bufLog2 bytes: addr = base + ((hash + iter*8192 +
// idx*128) & mask) (+ lane*4 when coalesced).
//
// Scattered (per-thread hash) addresses model raytracing's incoherent
// shading access: every lane touches its own line. Coalesced (per-warp
// hash) addresses model coherent G-buffer/constant fetches: the warp
// shares one or two lines, so such loads can miss without flooding the
// L1D with per-lane fills.
func emitScatterLoad(b *isa.Builder, base int32, bufLog2 int, idx int32, sb int, tex, coalesced bool) {
	hashReg := uint8(9)
	if coalesced {
		hashReg = 12
	}
	b.Iaddi(6, hashReg, idx*128) // hash + idx*128
	b.Imuli(10, 2, 8192)         // iter stride
	b.Iadd(6, 6, 10)
	b.Movi(10, int32(1<<bufLog2-1)&^127) // line-aligned mask
	b.Iand(6, 6, 10)
	if coalesced {
		b.Iadd(6, 6, 13) // + lane*4
	} else {
		b.Nop() // keep shader bodies length-uniform across modes
	}
	b.Iaddi(6, 6, base)
	if tex {
		b.Tld(7, 6, 0, sb)
	} else {
		b.Ldg(7, 6, 0, sb)
	}
}

// instrsPerLine is the number of 8-byte instructions per 128-byte
// instruction cache line; shader layout aligns to it.
const instrsPerLine = 16

// mathGroup is how many filler math ops run between line breaks; small
// groups keep line utilization sparse, as branchy shader code is.
const mathGroup = 3

func alignUp(v, to int) int {
	if rem := v % to; rem != 0 {
		v += to - rem
	}
	return v
}

// lineBreak ends the current basic block: a branch to a fresh label
// placed at the next instruction-cache-line boundary, with a dead NOP
// gap in between. The gap is never fetched or executed; it only
// spreads the executed path across lines.
func lineBreak(b *isa.Builder, tag string) {
	b.Bra(tag)
	for b.PC()%instrsPerLine != 0 {
		b.Nop()
	}
	b.Label(tag)
}

// emitHitShader emits hit shader s: ShaderLoads scattered load-to-use
// chains, each interleaved with filler math split into line-hopping
// groups, ending with a branch to the reconvergence point.
func emitHitShader(b *isa.Builder, p AppProfile, s int, reconv string) {
	base := int32(shaderBufBase + s*shaderBufStep)
	for l := 0; l < p.ShaderLoads; l++ {
		sb := 1 + (l+s)%5
		tex := p.ShaderTex && l%2 == 1
		emitScatterLoad(b, base, p.ShaderBufLog2, int32(l), sb, tex, false)
		emitted := 0
		for group := 0; emitted < p.ShaderMath; group++ {
			n := p.ShaderMath - emitted
			if n > mathGroup {
				n = mathGroup
			}
			for m := 0; m < n; m++ {
				b.Ffma(8, 8, 8, 8)
			}
			emitted += n
			if emitted < p.ShaderMath {
				lineBreak(b, fmt.Sprintf("s%d_l%d_g%d", s, l, group))
			}
		}
		b.Iadd(8, 8, 7).Req(sb) // divergent load-to-use
		if l < p.ShaderLoads-1 {
			lineBreak(b, fmt.Sprintf("s%d_c%d", s, l+1))
		}
	}
	b.Bra(reconv)
}

// measureShaderLen lays a hit shader out in a scratch builder (starting
// line-aligned, exactly as the real table slots do) and returns its
// slot size rounded up to whole cache lines.
func measureShaderLen(p AppProfile) int {
	scratch := isa.NewBuilder("measure")
	emitHitShader(scratch, p, 1, "m_reconv")
	n := scratch.PC()
	if n < 3 {
		n = 3 // miss shader: 2 ops + BRA
	}
	return alignUp(n, instrsPerLine)
}
