package gpu

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/workload"
)

// The cross-matrix differential layer: every workload-family x
// scheduler-policy x SI cell must be bit-identical across worker
// counts and across the compiled and interpreted engines. This is the
// proof obligation behind adding scheduler policies at all — a policy
// that broke greedy stickiness or drew on time-dependent state would
// show up here as a compiled-vs-interpreted or w1-vs-w4 divergence.

// smallGenWorkloads returns the three generator families with trip
// counts shrunk for test speed but occupancy kept at the default 64
// warps (8 per processing block): below full occupancy the GTO and
// WaSP fallback orders collapse toward LRR's, and a differential test
// over identical schedules would be vacuous.
func smallGenWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	gemm := workload.DefaultGEMM()
	gemm.TilesK = 4
	bfs := workload.DefaultBFS()
	bfs.Levels = 1
	tex := workload.DefaultTexture()
	tex.Iterations = 2
	gk, gerr := workload.GEMM(gemm)
	bk, berr := workload.BFS(bfs)
	tk, terr := workload.Texture(tex)
	return []diffWorkload{
		built(t, "gemm", gk, gerr),
		built(t, "bfs", bk, berr),
		built(t, "texture", tk, terr),
	}
}

// schedPolicies enumerates every registered scheduler policy.
func schedPolicies() []config.SchedPolicy {
	pols := make([]config.SchedPolicy, config.NumSchedPolicies)
	for i := range pols {
		pols[i] = config.SchedPolicy(i)
	}
	return pols
}

// TestMatrixDifferential runs every family x policy x {baseline, SI}
// cell three ways — compiled sequential, compiled with 4 workers, and
// interpreted sequential — and requires bit-identical counters,
// derived metrics, and final memory images.
func TestMatrixDifferential(t *testing.T) {
	for _, w := range smallGenWorkloads(t) {
		for _, pol := range schedPolicies() {
			for _, mode := range []string{"baseline", "si"} {
				w, pol, mode := w, pol, mode
				t.Run(w.name+"/"+pol.String()+"/"+mode, func(t *testing.T) {
					t.Parallel()
					cfg := defaultConfig()
					cfg.SchedPolicy = pol
					if mode == "si" {
						cfg = cfg.WithSI(true, config.TriggerHalfStalled)
					}
					seqRes, seqFP := runWith(t, w, served(cfg), 1)
					parRes, parFP := runWith(t, w, served(cfg), 4)
					intRes, intFP := runWith(t, w, interpreted(cfg), 1)
					if seqRes.Counters != parRes.Counters {
						t.Errorf("worker counts diverge:\n  w1 %+v\n  w4 %+v",
							seqRes.Counters, parRes.Counters)
					}
					if seqFP != parFP {
						t.Errorf("worker-count memory images diverge: w1 %#x, w4 %#x", seqFP, parFP)
					}
					if seqRes.Counters != intRes.Counters {
						t.Errorf("engines diverge:\n  compiled    %+v\n  interpreted %+v",
							seqRes.Counters, intRes.Counters)
					}
					if seqRes.Derived() != intRes.Derived() {
						t.Errorf("derived metrics diverge:\n  compiled    %+v\n  interpreted %+v",
							seqRes.Derived(), intRes.Derived())
					}
					if seqFP != intFP {
						t.Errorf("engine memory images diverge: compiled %#x, interpreted %#x",
							seqFP, intFP)
					}
				})
			}
		}
	}
}

// TestPropertyGEMMSITransparency: the tiled-GEMM family never
// diverges, so under every scheduler policy each SI configuration must
// be cycle-exact against that policy's baseline — the full counter
// set, not just cycles.
func TestPropertyGEMMSITransparency(t *testing.T) {
	p := workload.DefaultGEMM()
	p.TilesK = 4
	k, err := workload.GEMM(p)
	w := built(t, "gemm", k, err)
	for _, pol := range schedPolicies() {
		base := defaultConfig()
		base.SchedPolicy = pol
		bRes, _ := runWith(t, w, base, 0)
		if bRes.Counters.DivergentBranches != 0 {
			t.Fatalf("%s: GEMM diverged %d times; transparency check is mis-targeted",
				pol, bRes.Counters.DivergentBranches)
		}
		for name, cfg := range siConfigs() {
			cfg.SchedPolicy = pol
			got, _ := runWith(t, w, cfg, 0)
			if got.Counters != bRes.Counters {
				t.Errorf("%s/%s is not transparent on divergence-free GEMM:\n  baseline %+v\n  SI       %+v",
					pol, name, bRes.Counters, got.Counters)
			}
		}
	}
}

// TestPropertyGeneratorInvariants quantifies two invariants over every
// generator family, scheduler policy, and SI mode: the five
// idle-attribution buckets partition IdleCycles exactly, and the
// lane-weighted retired work plus the final memory image never depend
// on the schedule (policies and SI may only reorder execution, not
// change what executes).
func TestPropertyGeneratorInvariants(t *testing.T) {
	for _, w := range smallGenWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			type outcome struct {
				name    string
				threads int64
				fp      uint64
			}
			var outcomes []outcome
			for _, pol := range schedPolicies() {
				for _, mode := range []string{"baseline", "si"} {
					cfg := defaultConfig()
					cfg.SchedPolicy = pol
					if mode == "si" {
						cfg = cfg.WithSI(true, config.TriggerHalfStalled)
					}
					res, fp := runWith(t, w, cfg, 0)
					c := res.Counters
					if sum := idleBucketSum(c); sum != c.IdleCycles {
						t.Errorf("%s/%s: idle buckets sum to %d, IdleCycles = %d",
							pol, mode, sum, c.IdleCycles)
					}
					if c.ActiveThreads == 0 {
						t.Fatalf("%s/%s: retired no thread-instructions", pol, mode)
					}
					outcomes = append(outcomes, outcome{pol.String() + "/" + mode, c.ActiveThreads, fp})
				}
			}
			for _, o := range outcomes[1:] {
				if o.threads != outcomes[0].threads {
					t.Errorf("%s retired %d thread-instructions, %s retired %d",
						o.name, o.threads, outcomes[0].name, outcomes[0].threads)
				}
				if o.fp != outcomes[0].fp {
					t.Errorf("%s final memory %#x differs from %s %#x",
						o.name, o.fp, outcomes[0].name, outcomes[0].fp)
				}
			}
		})
	}
}
