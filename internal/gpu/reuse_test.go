package gpu

import (
	"sync"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// saxpyKernel is the read-modify-write shape of
// examples/submissions/saxpy.asm: y[i] = 3*x[i] + y[i], so every word
// the launch stores is a word it loaded first. A run that changed its
// kernel would compute something else the second time.
func saxpyKernel(t *testing.T) *sm.Kernel {
	t.Helper()
	prog, err := isa.Assemble("saxpy", `
.regs 8
    S2R R0, SR3
    SHL R1, R0, 2
    LDG R2, [R1+0] &wr=sb0
    LDG R3, [R1+65536] &wr=sb1
    IADD R4, R2, R2 &req=sb0
    IADD R4, R4, R2
    IADD R4, R4, R3 &req=sb1
    STG [R1+65536], R4
    EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	for i := uint64(0); i < 8*32; i++ {
		m.Store(4*i, uint32(i+1))
		m.Store(65536+4*i, uint32(1000*i))
	}
	return &sm.Kernel{Program: prog, NumWarps: 8, WarpsPerCTA: 2, Memory: m}
}

// reuseWorkloads builds one kernel of every family: a Table II
// megakernel, the three generator families, the divergence
// microbenchmark, and the read-modify-write kernel.
func reuseWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	p, err := workload.ProfileByName("BFV1")
	if err != nil {
		t.Fatal(err)
	}
	k, err := workload.Megakernel(shrink(p))
	ws := append(smallGenWorkloads(t), built(t, "BFV1", k, err), microbench4(t))
	return append(ws, diffWorkload{name: "saxpy", kernel: saxpyKernel(t)})
}

// TestKernelIsReusable pins the run contract: a kernel is a value. One
// built kernel, run three times in sequence and four times at once,
// baseline and Both,N>=0.5, gives every time the counters and the final
// memory image a freshly built kernel gives, and is afterwards exactly
// what it was — same image, same content address. tools/check.sh runs
// it under -race, where a run that wrote its kernel is a reported race.
func TestKernelIsReusable(t *testing.T) {
	cfgs := map[string]config.Config{
		"baseline": defaultConfig(),
		"si":       defaultConfig().WithSI(true, config.TriggerHalfStalled),
	}
	shared := reuseWorkloads(t)
	for cname, cfg := range cfgs {
		fresh := reuseWorkloads(t)
		for i, w := range shared {
			w, ref, cfg := w, fresh[i], cfg
			t.Run(w.name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				imageBefore := w.kernel.Memory.Fingerprint()
				keyBefore := simcache.KeyOf(cfg, w.kernel, w.name)
				want, wantFP := runWith(t, ref, cfg, 0)
				if w.name == "saxpy" && wantFP == imageBefore {
					t.Fatal("saxpy stored nothing; the read-modify-write case is vacuous")
				}

				check := func(when string, workers int) {
					res, err := RunWorkers(cfg, w.kernel, workers)
					if err != nil {
						t.Errorf("%s: %v", when, err)
						return
					}
					if res.Counters != want.Counters {
						t.Errorf("%s: counters differ from a fresh kernel's:\n  fresh  %+v\n  reused %+v",
							when, want.Counters, res.Counters)
					}
					if fp := res.Memory.Fingerprint(); fp != wantFP {
						t.Errorf("%s: final image %#x, a fresh kernel's is %#x", when, fp, wantFP)
					}
				}
				for run := 1; run <= 3; run++ {
					check("sequential run", 0)
				}
				var wg sync.WaitGroup
				for run := 0; run < 4; run++ {
					wg.Add(1)
					go func(workers int) {
						defer wg.Done()
						check("concurrent run", workers)
					}(1 + run%2)
				}
				wg.Wait()

				if got := w.kernel.Memory.Fingerprint(); got != imageBefore {
					t.Errorf("kernel image changed: %#x before, %#x after", imageBefore, got)
				}
				if got := simcache.KeyOf(cfg, w.kernel, w.name); got != keyBefore {
					t.Errorf("content address changed: %s before, %s after", keyBefore, got)
				}
			})
		}
	}
}
