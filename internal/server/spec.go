package server

import (
	"fmt"

	"subwarpsim/internal/config"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// JobSpec is the wire form of one simulation job: a workload (an
// application trace name, a microbenchmark subwarp size, or a
// registered workload-family name) plus the architecture/policy knobs
// the sisim CLI exposes. The zero value of every knob means "paper
// default".
type JobSpec struct {
	// App names an application trace (see workload.AppNames).
	// Exactly one of App, Microbench, and Workload must be set.
	App string `json:"app,omitempty"`
	// Microbench runs the divergence microbenchmark with this subwarp
	// size (1, 2, 4, 8, 16, or 32).
	Microbench int `json:"microbench,omitempty"`
	// Workload names a registered synthetic workload family
	// (see workload.GeneratorNames: "gemm", "bfs", "texture", ...).
	Workload string `json:"workload,omitempty"`

	// SI enables Subwarp Interleaving; DWS models Dynamic Warp
	// Subdivision instead (mutually exclusive with SI).
	SI  bool `json:"si,omitempty"`
	DWS bool `json:"dws,omitempty"`
	// Yield enables subwarp-yield (the paper's "Both" mode).
	Yield bool `json:"yield,omitempty"`
	// Trigger is the subwarp-select trigger: "any", "half" (default),
	// or "all".
	Trigger string `json:"trigger,omitempty"`
	// LatencyCycles overrides the L1 miss latency (default 600).
	LatencyCycles int `json:"latency_cycles,omitempty"`
	// WarpSlots overrides warp slots per processing block (default 8).
	WarpSlots int `json:"warp_slots,omitempty"`
	// MaxSubwarps caps TST entries per warp (0 = unlimited).
	MaxSubwarps int `json:"max_subwarps,omitempty"`
	// Order is the divergent-path activation order: "taken" (default),
	// "fallthrough", "largest", or "random".
	Order string `json:"order,omitempty"`
	// Policy is the warp-scheduler arbitration rule: "lrr" (default),
	// "gto", or "wasp".
	Policy string `json:"policy,omitempty"`

	// TimeoutMS bounds this job's simulation wall time; 0 uses the
	// server default. The server clamps it to its configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// policyKnobs is the SI/DWS/yield/trigger/order/policy subset JobSpec
// and SubmitSpec both carry; the wire structs stay flat, this is the
// one place the knobs are checked and mapped onto a config.
type policyKnobs struct {
	SI, DWS, Yield         bool
	Trigger, Order, Policy string
}

// apply checks the knobs and returns cfg with them applied.
func (k policyKnobs) apply(cfg config.Config) (config.Config, error) {
	if k.SI && k.DWS {
		return cfg, fmt.Errorf("spec sets both si and dws; pick one")
	}
	trigger, err := config.ParseTrigger(k.Trigger)
	if err != nil {
		return cfg, err
	}
	policy, err := config.ParseSchedPolicy(k.Policy)
	if err != nil {
		return cfg, err
	}
	order, err := config.ParseOrder(k.Order)
	if err != nil {
		return cfg, err
	}
	cfg.Order = order
	cfg.SchedPolicy = policy
	if k.DWS {
		cfg = cfg.WithDWS()
	} else if k.SI {
		cfg = cfg.WithSI(k.Yield, trigger)
	}
	return cfg, nil
}

// workloadCount counts how many of the three workload selectors the
// spec sets; exactly one must be.
func (j JobSpec) workloadCount() int {
	n := 0
	if j.App != "" {
		n++
	}
	if j.Microbench != 0 {
		n++
	}
	if j.Workload != "" {
		n++
	}
	return n
}

// Validate reports the first problem with the spec.
func (j JobSpec) Validate() error {
	switch {
	case j.workloadCount() == 0:
		return fmt.Errorf("spec needs a workload: set app, microbench, or workload")
	case j.workloadCount() > 1:
		return fmt.Errorf("spec sets more than one of app, microbench, and workload; pick one")
	case j.Microbench < 0:
		return fmt.Errorf("microbench subwarp size %d must be positive", j.Microbench)
	case j.LatencyCycles < 0 || j.WarpSlots < 0 || j.MaxSubwarps < 0 || j.TimeoutMS < 0:
		return fmt.Errorf("negative knob values are invalid")
	}
	switch {
	case j.App != "":
		if _, err := workload.ProfileByName(j.App); err != nil {
			return err
		}
	case j.Workload != "":
		// Generators validate their (default) parameters at build time;
		// here only the name needs to resolve.
		if _, err := workload.GeneratorByName(j.Workload); err != nil {
			return err
		}
	default:
		if err := workload.DefaultMicrobench(j.Microbench).Validate(); err != nil {
			return err
		}
	}
	_, err := j.knobs().apply(config.Default())
	return err
}

func (j JobSpec) knobs() policyKnobs {
	return policyKnobs{SI: j.SI, DWS: j.DWS, Yield: j.Yield,
		Trigger: j.Trigger, Order: j.Order, Policy: j.Policy}
}

// Config builds the architecture configuration the spec describes,
// starting from the paper's Table I defaults.
func (j JobSpec) Config() (config.Config, error) {
	cfg := config.Default()
	if err := j.Validate(); err != nil {
		return cfg, err
	}
	if j.LatencyCycles > 0 {
		cfg.L1MissLatency = j.LatencyCycles
	}
	if j.WarpSlots > 0 {
		cfg.WarpSlotsPerBlock = j.WarpSlots
	}
	cfg, _ = j.knobs().apply(cfg)
	if j.SI && !j.DWS {
		cfg.SI.MaxSubwarps = j.MaxSubwarps
	}
	return cfg, cfg.Validate()
}

// BuildKernel constructs the kernel for the spec's workload. A run
// leaves a kernel as built, so equal specs may share one.
func (j JobSpec) BuildKernel() (*sm.Kernel, error) {
	switch {
	case j.App != "":
		p, err := workload.ProfileByName(j.App)
		if err != nil {
			return nil, err
		}
		return workload.Megakernel(p)
	case j.Workload != "":
		return workload.BuildByName(j.Workload)
	default:
		return workload.Microbench(workload.DefaultMicrobench(j.Microbench))
	}
}

// CacheKey computes the spec's content address — the same
// simcache.Key Submit uses — without running anything. The cluster
// coordinator hashes it onto the consistent-hash ring so that a spec
// routes to the node whose memory LRU already holds its result.
// Building the kernel makes this costlier than a pure hash; routing
// layers should memoize per spec (JobSpec is comparable).
func (j JobSpec) CacheKey() (simcache.Key, error) {
	cfg, err := j.Config()
	if err != nil {
		return simcache.Key{}, err
	}
	kernel, err := j.BuildKernel()
	if err != nil {
		return simcache.Key{}, err
	}
	return simcache.KeyOf(cfg, kernel, j.WorkloadID()), nil
}

// WorkloadID is the workload half of the cache key: a stable name for
// how BuildKernel constructs the kernel.
func (j JobSpec) WorkloadID() string {
	switch {
	case j.App != "":
		return "app/" + j.App
	case j.Workload != "":
		return "gen/" + j.Workload
	default:
		return fmt.Sprintf("micro/%d", j.Microbench)
	}
}
