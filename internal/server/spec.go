package server

import (
	"errors"
	"fmt"
	"sync"

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

// policyKnobs is the knob set JobSpec and SubmitSpec share (a
// submission leaves the three architecture numbers at zero); the wire
// structs stay flat, and this is the one place knobs are checked and
// mapped onto a config.
type policyKnobs struct {
	SI, DWS, Yield                        bool
	Trigger, Order, Policy                string
	LatencyCycles, WarpSlots, MaxSubwarps int
}

// config checks the knobs and applies them to the paper's Table I
// defaults; zero numbers keep the default.
func (k policyKnobs) config() (config.Config, error) {
	cfg := config.Default()
	switch {
	case k.SI && k.DWS:
		return cfg, fmt.Errorf("spec sets both si and dws; pick one")
	case k.LatencyCycles < 0 || k.WarpSlots < 0 || k.MaxSubwarps < 0:
		return cfg, errNegativeKnob
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
	if k.LatencyCycles > 0 {
		cfg.L1MissLatency = k.LatencyCycles
	}
	if k.WarpSlots > 0 {
		cfg.WarpSlotsPerBlock = k.WarpSlots
	}
	cfg.Order = order
	cfg.SchedPolicy = policy
	if k.DWS {
		cfg = cfg.WithDWS()
	} else if k.SI {
		cfg = cfg.WithSI(k.Yield, trigger)
		cfg.SI.MaxSubwarps = k.MaxSubwarps
	}
	return cfg, cfg.Validate()
}

var errNegativeKnob = errors.New("negative knob values are invalid")

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

// Validate reports the first problem with the spec: its workload, then
// everything Config checks.
func (j JobSpec) Validate() error {
	switch {
	case j.workloadCount() == 0:
		return fmt.Errorf("spec needs a workload: set app, microbench, or workload")
	case j.workloadCount() > 1:
		return fmt.Errorf("spec sets more than one of app, microbench, and workload; pick one")
	case j.Microbench < 0:
		return fmt.Errorf("microbench subwarp size %d must be positive", j.Microbench)
	case j.LatencyCycles < 0 || j.WarpSlots < 0 || j.MaxSubwarps < 0 || j.TimeoutMS < 0:
		return errNegativeKnob
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
	_, err := j.Config()
	return err
}

// Config builds the architecture configuration the spec's knobs
// describe, starting from the paper's Table I defaults. It does not
// look at the workload; Validate does.
func (j JobSpec) Config() (config.Config, error) {
	return policyKnobs{SI: j.SI, DWS: j.DWS, Yield: j.Yield,
		Trigger: j.Trigger, Order: j.Order, Policy: j.Policy,
		LatencyCycles: j.LatencyCycles, WarpSlots: j.WarpSlots, MaxSubwarps: j.MaxSubwarps,
	}.config()
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

// specKeysMax bounds the spec-to-key memo. At the bound the memo is reset
// wholesale: a sweep's working set is far smaller, and a reset costs
// each spec one more build.
const specKeysMax = 4096

// specKeys maps a valid spec, TimeoutMS zeroed, to its content address
// for the life of the process. It holds keys, never kernels: a retained
// kernel costs far more memory than the rare rebuild a cache miss needs.
// It lives only in process memory, so every key in it was computed by
// this binary's generators.
var specKeys = struct {
	sync.Mutex
	m map[JobSpec]simcache.Key
}{m: make(map[JobSpec]simcache.Key)}

// Key returns the spec's content address: the simcache key a node
// looks its result up by, and whose RouteHash places it on the cluster
// ring. The first call for a spec in a process builds the kernel and
// hashes it; later calls validate the spec and look the key up. Errors
// are never remembered.
func (j JobSpec) Key() (simcache.Key, error) {
	key, _, err := j.key()
	return key, err
}

// key is Key that also hands back the kernel a memo miss built (nil on
// a memo hit), so a node whose cache then misses runs that kernel
// instead of building another.
func (j JobSpec) key() (simcache.Key, *sm.Kernel, error) {
	if err := j.Validate(); err != nil {
		return simcache.Key{}, nil, err
	}
	j.TimeoutMS = 0
	specKeys.Lock()
	key, ok := specKeys.m[j]
	specKeys.Unlock()
	if ok {
		return key, nil, nil
	}
	cfg, _ := j.Config() // Validate has checked it
	kernel, err := j.BuildKernel()
	if err != nil {
		return simcache.Key{}, nil, err
	}
	key = simcache.KeyOf(cfg, kernel, j.WorkloadID())
	specKeys.Lock()
	if len(specKeys.m) >= specKeysMax {
		specKeys.m = make(map[JobSpec]simcache.Key)
	}
	specKeys.m[j] = key
	specKeys.Unlock()
	return key, kernel, nil
}
