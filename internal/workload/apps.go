package workload

import (
	"fmt"
	"slices"
	"sync"

	"subwarpsim/internal/rtcore"
)

// apps is the registry: the ten raytracing application-trace profiles
// of Table II, in the paper's order.
//
// The paper's traces come from proprietary game captures; these
// profiles are synthetic stand-ins calibrated so that the *baseline
// characterisation* (Fig. 3: total exposed load-to-use stalls and their
// divergent share) matches each trace's reported shape. The SI speedups
// are then whatever the simulated mechanism produces:
//
//   - BFV1/BFV2 (reflections): most stalls in divergent shader code,
//     low occupancy — the traces SI helps most (~15-20%).
//   - Coll1/Coll2 (internal demos): heavily stalled but mostly in
//     convergent code — large stall counts, small SI gains.
//   - AV2 (ambient occlusion): traversal-heavy, light shading —
//     limited by the RT core (Amdahl), modest gains.
//   - The rest sit in between.
var apps = []AppProfile{
	{
		Name: "AV1", App: "ArchViz Interior", Effect: "GI-D", Seed: 101,
		RegsPerThread: 64, NumWarps: 80,
		Iterations: 3, Shaders: 6,
		ShaderLoads: 1, ShaderMath: 16, ShaderTex: true, ShaderBufLog2: 12,
		ConvLoads: 2, ConvMath: 6, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     2400, SceneClusters: 6, MaterialSkew: 0.55,
	},
	{
		Name: "AV2", App: "ArchViz Interior", Effect: "AO", Seed: 102,
		RegsPerThread: 64, NumWarps: 96,
		Iterations: 4, Shaders: 4,
		ShaderLoads: 1, ShaderMath: 16, ShaderTex: false, ShaderBufLog2: 12,
		ConvLoads: 2, ConvMath: 10, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     3200, SceneClusters: 12, MaterialSkew: 0.4,
	},
	{
		Name: "BFV1", App: "Battlefield V scene 1", Effect: "R", Seed: 103,
		RegsPerThread: 72, NumWarps: 64,
		Iterations: 3, Shaders: 8,
		ShaderLoads: 3, ShaderMath: 12, ShaderTex: true, ShaderBufLog2: 14,
		ConvLoads: 0, ConvMath: 0, ConvBufLog2: 14,
		SceneTris: 2000, SceneClusters: 14, MaterialSkew: 0.35,
	},
	{
		Name: "BFV2", App: "Battlefield V scene 2", Effect: "R", Seed: 104,
		RegsPerThread: 88, NumWarps: 64,
		Iterations: 3, Shaders: 7,
		ShaderLoads: 3, ShaderMath: 16, ShaderTex: true, ShaderBufLog2: 14,
		ConvLoads: 0, ConvMath: 0, ConvBufLog2: 14,
		SceneTris: 1800, SceneClusters: 8, MaterialSkew: 0.3,
	},
	{
		Name: "Coll1", App: "RTX Collage", Effect: "AO", Seed: 105,
		RegsPerThread: 80, NumWarps: 80,
		Iterations: 3, Shaders: 4,
		ShaderLoads: 1, ShaderMath: 10, ShaderTex: false, ShaderBufLog2: 11,
		ConvLoads: 6, ConvMath: 2, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     1600, SceneClusters: 4, MaterialSkew: 0.6,
	},
	{
		Name: "Coll2", App: "RTX Collage", Effect: "R", Seed: 106,
		RegsPerThread: 80, NumWarps: 80,
		Iterations: 3, Shaders: 5,
		ShaderLoads: 1, ShaderMath: 16, ShaderTex: true, ShaderBufLog2: 11,
		ConvLoads: 6, ConvMath: 2, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     1600, SceneClusters: 4, MaterialSkew: 0.6,
	},
	{
		Name: "Ctrl", App: "Control", Effect: "M", Seed: 107,
		RegsPerThread: 72, NumWarps: 72,
		Iterations: 2, Shaders: 6,
		ShaderLoads: 1, ShaderMath: 20, ShaderTex: true, ShaderBufLog2: 13,
		ConvLoads: 2, ConvMath: 6, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     2600, SceneClusters: 6, MaterialSkew: 0.5,
	},
	{
		Name: "DDGI", App: "DDGI Villa", Effect: "GI-D", Seed: 108,
		RegsPerThread: 72, NumWarps: 80,
		Iterations: 4, Shaders: 5,
		ShaderLoads: 1, ShaderMath: 12, ShaderTex: false, ShaderBufLog2: 13,
		ConvLoads: 1, ConvMath: 6, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     2800, SceneClusters: 12, MaterialSkew: 0.3,
	},
	{
		Name: "MC", App: "Minecraft", Effect: "M", Seed: 109,
		RegsPerThread: 64, NumWarps: 96,
		Iterations: 3, Shaders: 4,
		ShaderLoads: 1, ShaderMath: 16, ShaderTex: false, ShaderBufLog2: 11,
		ConvLoads: 2, ConvMath: 8, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     1200, SceneClusters: 8, MaterialSkew: 0.6,
	},
	{
		Name: "MW", App: "Mechwarrior 5", Effect: "R", Seed: 110,
		RegsPerThread: 80, NumWarps: 72,
		Iterations: 3, Shaders: 6,
		ShaderLoads: 2, ShaderMath: 18, ShaderTex: true, ShaderBufLog2: 13,
		ConvLoads: 1, ConvMath: 4, ConvBufLog2: 20,
		ConvCoalesced: true,
		SceneTris:     2200, SceneClusters: 10, MaterialSkew: 0.4,
	},
}

// Apps returns the Table II profiles in the paper's order; the slice
// is the caller's own.
func Apps() []AppProfile { return slices.Clone(apps) }

// AppNames returns the trace names in paper order.
func AppNames() []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (AppProfile, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return AppProfile{}, fmt.Errorf("workload: unknown application trace %q", name)
}

// appHits holds one hit table per Table II trace for the life of the
// process: a closed set, 4 bytes a ray, 307 KiB once all ten exist.
var appHits = make([]struct {
	once  sync.Once
	table rtcore.HitTable
}, len(apps))

// hitTableFor returns the shared table of the Table II trace p is, made
// on first use, or nil when p is any other profile: only a registered
// profile names its scene, and a ray's hit is a function of the scene.
func hitTableFor(p AppProfile) rtcore.HitTable {
	i := slices.Index(apps, p)
	if i < 0 {
		return nil
	}
	h := &appHits[i]
	h.once.Do(func() { h.table = rtcore.NewHitTable(p.NumWarps * 32 * p.Iterations) })
	return h.table
}
