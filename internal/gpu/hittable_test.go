package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// sweepConfigs are the four Fig. 12a policies the repository
// benchmark's paper-sweep crosses with the traces.
func sweepConfigs() map[string]config.Config {
	base := defaultConfig()
	return map[string]config.Config{
		"baseline":    base,
		"SOS,N>=0.5":  base.WithSI(false, config.TriggerHalfStalled),
		"Both,N>=0.5": base.WithSI(true, config.TriggerHalfStalled),
		"Both,N>0":    base.WithSI(true, config.TriggerAnyStalled),
	}
}

// withHits is k over another hit table (nil for none).
func withHits(k *sm.Kernel, hits rtcore.HitTable) *sm.Kernel {
	c := *k
	c.Hits = hits
	return &c
}

// filled counts the rays a table holds.
func filled(hits rtcore.HitTable) int {
	n := 0
	for i := range hits {
		if hits[i].Load() != 0 {
			n++
		}
	}
	return n
}

// sameResult fails the test when a run with a hit table differs from
// the run without one.
func sameResult(t *testing.T, what string, want, got Result) {
	t.Helper()
	if wantFP, gotFP := want.Memory.Fingerprint(), got.Memory.Fingerprint(); got.Counters != want.Counters || gotFP != wantFP {
		t.Errorf("%s: result differs from a run without a table:\n  without %+v %#x\n  with    %+v %#x",
			what, want.Counters, wantFP, got.Counters, gotFP)
	}
}

// TestHitTableNeverChangesAResult pins what lets one table serve every
// run of a trace. Each of the ten Table II traces (one wave, as the
// differential suites shrink them), under the four paper-sweep
// policies, both regimes and 1 and 4 workers, gives the same counters
// and final image with no table, with an empty one (every ray traversed
// and stored) and with that table warm (no ray traversed); four runs at
// once fill one empty table. Each trace as registered then does under
// the process-wide table workload.Megakernel attached, whatever earlier
// tests left in it. tools/check.sh runs this under -race.
func TestHitTableNeverChangesAResult(t *testing.T) {
	for _, app := range workload.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			small := shrink(app)
			k, err := workload.Megakernel(small)
			if err != nil {
				t.Fatal(err)
			}
			bare := diffWorkload{app.Name, withHits(k, nil)}
			rays := small.NumWarps * 32 * small.Iterations
			for cname, cfg := range sweepConfigs() {
				for _, compiled := range []bool{true, false} {
					cfg.Compiled = compiled
					for _, workers := range []int{1, 4} {
						want, _ := runWith(t, bare, cfg, workers)
						if want.Counters.RTTraces != int64(rays) {
							t.Fatalf("%s traced %d rays, want %d", cname, want.Counters.RTTraces, rays)
						}
						tabled := diffWorkload{app.Name, withHits(k, rtcore.NewHitTable(rays))}
						for _, when := range []string{"empty table", "warm table"} {
							got, _ := runWith(t, tabled, cfg, workers)
							sameResult(t, fmt.Sprintf("%s compiled=%v workers=%d, %s", cname, compiled, workers, when), want, got)
							if n := filled(tabled.kernel.Hits); n != rays {
								t.Fatalf("%s: a run left %d of %d rays in its table", cname, n, rays)
							}
						}
					}
				}
			}

			// Concurrent fill: four runs race to store the same words.
			cfg := defaultConfig().WithSI(true, config.TriggerHalfStalled)
			want, _ := runWith(t, bare, cfg, 1)
			racing := withHits(k, rtcore.NewHitTable(rays))
			var wg sync.WaitGroup
			for run := 0; run < 4; run++ {
				wg.Add(1)
				go func(workers int) {
					defer wg.Done()
					if got, err := RunWorkers(cfg, racing, workers); err != nil {
						t.Error(err)
					} else {
						sameResult(t, "concurrent fill", want, got)
					}
				}(1 + run%2)
			}
			wg.Wait()

			// The trace as registered, under the table every kernel of it
			// in this process shares.
			shared, err := workload.Megakernel(app)
			if err != nil {
				t.Fatal(err)
			}
			if want := app.NumWarps * 32 * app.Iterations; len(shared.Hits) != want {
				t.Fatalf("registered profile got a table of %d rays, want %d", len(shared.Hits), want)
			}
			want, _ = runWith(t, diffWorkload{app.Name, withHits(shared, nil)}, cfg, 0)
			got, _ := runWith(t, diffWorkload{app.Name, shared}, cfg, 0)
			sameResult(t, "process-wide table", want, got)
			if n := filled(shared.Hits); n != len(shared.Hits) {
				t.Errorf("process-wide table holds %d of %d rays", n, len(shared.Hits))
			}
		})
	}
}

// TestHitTableFallsBackToTraversal covers what a table cannot hold — a
// ray ID past its end, a material that does not fit its word — and a
// profile that is not a registered trace: all traverse, none changes a
// result.
func TestHitTableFallsBackToTraversal(t *testing.T) {
	p, err := workload.ProfileByName("Ctrl")
	if err != nil {
		t.Fatal(err)
	}
	edited := p
	edited.NumWarps = 16
	k, err := workload.Megakernel(edited)
	if err != nil {
		t.Fatal(err)
	}
	if k.Hits != nil {
		t.Fatal("a profile that is not the registered one got a hit table")
	}
	cfg := defaultConfig().WithSI(true, config.TriggerHalfStalled)
	want, wantFP := runWith(t, diffWorkload{"Ctrl/16", k}, cfg, 0)

	rays := edited.NumWarps * 32 * edited.Iterations
	short := rtcore.NewHitTable(rays / 3)
	for pass := 0; pass < 2; pass++ {
		got, gotFP := runWith(t, diffWorkload{"Ctrl/16", withHits(k, short)}, cfg, 0)
		if got.Counters != want.Counters || gotFP != wantFP {
			t.Errorf("short table, pass %d: result differs", pass)
		}
	}
	if n := filled(short); n != len(short) {
		t.Errorf("short table holds %d of its %d rays", n, len(short))
	}

	// A material that does not fit a word: rays 0, 3, ... hit material 3,
	// rays 1, 4, ... miss, rays 2, 5, ... hit material 1<<16, which is
	// never stored, so its hit record still arrives on the warm pass.
	b := isa.NewBuilder("tracestore")
	b.S2R(1, isa.SRThreadID)
	b.Trace(4, 1, 0)
	b.Shl(6, 1, 2)
	b.Iaddi(7, 4, 0).Req(0)
	b.Stg(6, 0, 7)
	prog := b.Exit().MustBuild()
	tk := &sm.Kernel{
		Program: prog, NumWarps: 2, WarpsPerCTA: 1, Memory: mem.NewMemory(),
		BVH: rtcore.BuildBVH([]rtcore.Triangle{
			{V0: rtcore.V(-1, -1, 5), V1: rtcore.V(1, -1, 5), V2: rtcore.V(0, 1, 5), Material: 3},
			{V0: rtcore.V(-1, -1, -5), V1: rtcore.V(1, -1, -5), V2: rtcore.V(0, 1, -5), Material: 1 << 16},
		}),
		RayGen: func(id uint32) rtcore.Ray {
			dirs := [3]rtcore.Vec3{rtcore.V(0, 0, 1), rtcore.V(0, 1, 0), rtcore.V(0, 0, -1)}
			return rtcore.NewRay(rtcore.V(0, 0, 0), dirs[id%3])
		},
		Hits: rtcore.NewHitTable(64),
	}
	for pass := 0; pass < 2; pass++ {
		res, _ := runWith(t, diffWorkload{"tracestore", tk}, defaultConfig(), 0)
		for id := uint32(0); id < 64; id++ {
			record := [3]uint32{3 + 1, 0, 1<<16 + 1}[id%3]
			if got := res.Memory.Load(uint64(4 * id)); got != record {
				t.Fatalf("pass %d: ray %d's hit record is %d, want %d", pass, id, got, record)
			}
			if stored := tk.Hits[id].Load() != 0; stored != (id%3 != 2) {
				t.Fatalf("pass %d: ray %d in the table: %v", pass, id, stored)
			}
		}
	}
}

// TestTablesAreAllThatIsKept builds and runs all ten traces and holds
// what the process then retains to the hit tables: no BVH, scene,
// program or kernel outlives its Megakernel call.
func TestTablesAreAllThatIsKept(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, app := range workload.Apps() {
		k, err := workload.Megakernel(app)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(defaultConfig(), k); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(heap()) - int64(before)
	t.Logf("retained %d KiB", grew>>10)
	if grew > 512<<10 {
		t.Errorf("ten traces built and run retain %d KiB, want under 512 (the tables are 307)", grew>>10)
	}
}
