package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"subwarpsim/internal/cluster"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/scene"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

// kernelProbe is what timing one distinct kernel outside any request
// gave: the compiled and the stepped engine on the same fresh kernel,
// and the scene layers under a megakernel.
type kernelProbe struct {
	label      string
	compiledNS float64 // host time of a run with Config.Compiled
	steppedNS  float64 // ... with Config.Compiled = false
	recordedNS float64 // ... stepped with the cycle recorder attached (recording ops only)
	cycles     int64
	instrs     int64
	allocs     float64 // heap allocations during one compiled run

	sceneMS, bvhMS float64 // scene.Generate and rtcore.BuildBVH, megakernels only
	rays           int
	traverseNS     float64 // total BVH.Traverse time over the kernel's camera rays
}

const maxProbedKernels = 24

// probeKernels times each distinct kernel of the traced pass and
// checks that the two engines agree on every counter.
func probeKernels(ctx context.Context, kernels []request) (probes []kernelProbe, problems []string) {
	for i, r := range kernels {
		if i == maxProbedKernels || ctx.Err() != nil {
			break
		}
		p, err := probeKernel(ctx, r)
		if err != nil {
			problems = append(problems, fmt.Sprintf("probe %s: %v", r.kernelID(), err))
			continue
		}
		probes = append(probes, p)
	}
	return probes, problems
}

func probeKernel(ctx context.Context, r request) (kernelProbe, error) {
	p := kernelProbe{label: r.label}
	cfg, build, app, err := materialize(r)
	if err != nil {
		return p, err
	}
	cfg.Trace = nil
	// run simulates a fresh kernel, twice unless the first run was long,
	// and returns the shorter host time.
	run := func(compiled, record bool, after func(gpu.Result, float64)) (float64, error) {
		best := math.Inf(1)
		spent := time.Duration(0)
		for rep := 0; rep < 2 && spent < 150*time.Millisecond; rep++ {
			k, err := build()
			if err != nil {
				return 0, err
			}
			c := cfg
			c.Compiled = compiled
			if record {
				c.Trace = trace.NewRecorder()
			}
			var before, done runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := gpu.RunContext(ctx, c, k, 1)
			d := time.Since(t0)
			runtime.ReadMemStats(&done)
			if err != nil {
				return 0, err
			}
			spent += d
			best = min(best, float64(d.Nanoseconds()))
			after(res, float64(done.Mallocs-before.Mallocs))
		}
		return best, nil
	}
	var compiled, stepped stats.Counters
	if p.compiledNS, err = run(true, false, func(res gpu.Result, allocs float64) {
		compiled, p.allocs = res.Counters, allocs
	}); err != nil {
		return p, err
	}
	if p.steppedNS, err = run(false, false, func(res gpu.Result, _ float64) { stepped = res.Counters }); err != nil {
		return p, err
	}
	if compiled != stepped {
		return p, fmt.Errorf("compiled and stepped counters differ")
	}
	p.cycles, p.instrs = compiled.Cycles, compiled.IssuedInstrs
	if r.lib != nil && r.lib.record {
		same := true
		if p.recordedNS, err = run(false, true, func(res gpu.Result, _ float64) {
			same = same && res.Counters == stepped
		}); err != nil {
			return p, err
		}
		if !same {
			return p, fmt.Errorf("counters change when the cycle recorder is attached")
		}
	}
	if app != nil {
		if err := probeScene(&p, *app, build); err != nil {
			return p, err
		}
	}
	return p, nil
}

// probeScene times the layers under workload.Megakernel on the
// kernel's own inputs: the scene it generates, the hierarchy built
// over that scene's triangles, and a traversal per camera ray.
func probeScene(p *kernelProbe, app workload.AppProfile, build func() (*sm.Kernel, error)) error {
	params := scene.Params{Seed: app.Seed, Triangles: app.SceneTris, Materials: app.Shaders,
		Clusters: app.SceneClusters, Extent: 60, MaterialSkew: app.MaterialSkew}
	t0 := time.Now()
	sc, err := scene.Generate(params)
	if err != nil {
		return err
	}
	p.sceneMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	tris := make([]rtcore.Triangle, sc.BVH.NumTriangles())
	for i := range tris {
		tris[i] = sc.BVH.Triangle(i)
	}
	t0 = time.Now()
	bvh := rtcore.BuildBVH(tris)
	p.bvhMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if bvh.NumNodes() != sc.BVH.NumNodes() {
		return fmt.Errorf("rebuilt BVH has %d nodes, the scene's has %d", bvh.NumNodes(), sc.BVH.NumNodes())
	}
	k, err := build()
	if err != nil {
		return err
	}
	p.rays = k.NumWarps * 32
	t0 = time.Now()
	for id := 0; id < p.rays; id++ {
		k.BVH.Traverse(k.RayGen(uint32(id)), 1e-4, rtcore.InfinityT)
	}
	p.traverseNS = float64(time.Since(t0).Nanoseconds())
	return nil
}

// fixedProbes times the layers that cost nanoseconds to microseconds
// per call against the milliseconds of a request. They are recorded on
// every workload so that nobody optimises them by mistake.
type fixedProbes struct {
	memGetNS, memPutNS   float64
	diskPutUS, diskGetUS float64
	ringLookupNS         float64
}

func probeFixed(e *env, seed int64) (fixedProbes, error) {
	var fp fixedProbes
	keys := make([]simcache.Key, 2048)
	for i := range keys {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(seed))
		binary.LittleEndian.PutUint64(b[8:], uint64(i))
		keys[i] = sha256.Sum256(b[:])
	}
	entry := simcache.Entry{Policy: "baseline", Blocks: 8, Counters: stats.Counters{Cycles: 1}}
	// each returns the median per-call time of f over n calls, timed in
	// batches so that reading the clock is not what is measured.
	each := func(n, batch int, f func(i int)) float64 {
		var times []float64
		for lo := 0; lo+batch <= n; lo += batch {
			t0 := time.Now()
			for i := lo; i < lo+batch; i++ {
				f(i)
			}
			times = append(times, float64(time.Since(t0).Nanoseconds())/float64(batch))
		}
		return median(times)
	}
	m := simcache.NewMemory(4096)
	fp.memPutNS = each(len(keys), 64, func(i int) { m.Put(keys[i], entry) })
	fp.memGetNS = each(len(keys), 64, func(i int) { m.Get(keys[i]) })

	dir, err := e.tempDir()
	if err != nil {
		return fp, err
	}
	d := simcache.NewDisk(dir)
	const files = 128
	fp.diskPutUS = each(files, 1, func(i int) {
		if perr := d.TryPut(keys[i], entry); perr != nil {
			err = perr
		}
	}) / 1e3
	fp.diskGetUS = each(files, 1, func(i int) {
		if _, ok, gerr := d.TryGet(keys[i]); gerr != nil || !ok {
			err = fmt.Errorf("disk cache lost key %d: %v", i, gerr)
		}
	}) / 1e3
	if err != nil {
		return fp, err
	}
	ring := cluster.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, 64)
	fp.ringLookupNS = each(len(keys), 64, func(i int) { ring.Preference(keys[i].RouteHash()) })
	return fp, nil
}
