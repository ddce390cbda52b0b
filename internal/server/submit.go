package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/config"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
)

// SubmitWorkloadID is the workload half of every submission's cache
// key, in sisimd and in sisim -submit alike. A single constant (rather
// than the client-chosen name) keeps the per-workload metric label set
// bounded; the program text itself is what distinguishes submissions
// in the content address.
const SubmitWorkloadID = "submit"

// maxSubmitWarps bounds a submission's launch size: enough for many
// waves over the default 64 warp slots, small enough that a hostile
// spec cannot allocate an absurd launch before the gas meter engages.
const maxSubmitWarps = 1024

// defaultSubmitBudget is the gas budget of a submission that requests
// none; maxSubmitBudget is what a request is clamped to where the
// caller's maximum leaves a field unset.
var (
	defaultSubmitBudget = sm.Budget{MaxCycles: 2_000_000, MaxInstrs: 8_000_000, MaxMemBytes: 8 << 20}
	maxSubmitBudget     = sm.Budget{MaxCycles: 20_000_000, MaxInstrs: 100_000_000, MaxMemBytes: 64 << 20}
)

// SubmitSpec is the wire form of one untrusted kernel submission:
// raw assembly text for the production assembler, a launch shape, a
// gas budget request, and the same policy knobs JobSpec exposes. All
// budget fields are requests — the server clamps them to its
// configured MaxBudget, and omitted fields take the default budget, so
// a submission always runs fully metered.
type SubmitSpec struct {
	// Name labels the program in logs and error messages; it does not
	// affect results or the cache key.
	Name string `json:"name,omitempty"`
	// Assembly is the kernel source text (the sisim assembly dialect).
	Assembly string `json:"assembly"`
	// Warps is the total launch size (default 8); WarpsPerCTA sizes
	// the cooperative thread array (default 2).
	Warps       int `json:"warps,omitempty"`
	WarpsPerCTA int `json:"warps_per_cta,omitempty"`

	// MaxCycles, MaxInstrs, and MemFootprintBytes request the per-SM
	// gas budget (cycles, retired instructions, written bytes). The
	// declared footprint doubles as the admission bound on memory
	// operands: an accepted program cannot name an address outside it.
	MaxCycles         int64 `json:"max_cycles,omitempty"`
	MaxInstrs         int64 `json:"max_instrs,omitempty"`
	MemFootprintBytes int64 `json:"mem_footprint_bytes,omitempty"`

	// Policy knobs, mirroring JobSpec.
	SI        bool   `json:"si,omitempty"`
	DWS       bool   `json:"dws,omitempty"`
	Yield     bool   `json:"yield,omitempty"`
	Trigger   string `json:"trigger,omitempty"`
	Order     string `json:"order,omitempty"`
	Policy    string `json:"policy,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// name returns the spec's display name, bounded by the rule trace IDs
// and tenant names share (it lands in logs and error strings).
func (sp SubmitSpec) name() string {
	if n := obs.SanitizeID(sp.Name); n != "" {
		return n
	}
	return "submission"
}

func (sp SubmitSpec) warps() (warps, perCTA int) {
	warps, perCTA = sp.Warps, sp.WarpsPerCTA
	if warps == 0 {
		warps = 8
	}
	if perCTA == 0 {
		perCTA = 2
		if warps < perCTA {
			perCTA = warps
		}
	}
	return warps, perCTA
}

// Validate reports the first problem with the spec's launch shape and
// knobs (the assembly itself is the admission pass's job).
func (sp SubmitSpec) Validate() error {
	if sp.Assembly == "" {
		return fmt.Errorf("submission has no assembly")
	}
	warps, perCTA := sp.warps()
	switch {
	case warps < 1 || warps > maxSubmitWarps:
		return fmt.Errorf("warps %d outside [1, %d]", warps, maxSubmitWarps)
	case perCTA < 1 || perCTA > warps:
		return fmt.Errorf("warps_per_cta %d outside [1, warps=%d]", perCTA, warps)
	case sp.MaxCycles < 0 || sp.MaxInstrs < 0 || sp.MemFootprintBytes < 0:
		return fmt.Errorf("negative budget values are invalid")
	case sp.TimeoutMS < 0:
		return fmt.Errorf("negative timeout_ms is invalid")
	}
	_, err := sp.knobs().config()
	return err
}

func (sp SubmitSpec) knobs() policyKnobs {
	return policyKnobs{SI: sp.SI, DWS: sp.DWS, Yield: sp.Yield,
		Trigger: sp.Trigger, Order: sp.Order, Policy: sp.Policy}
}

// Config builds the architecture configuration for the submission,
// applying the same knob mapping as JobSpec.Config.
func (sp SubmitSpec) Config() (config.Config, error) {
	if err := sp.Validate(); err != nil {
		return config.Default(), err
	}
	return sp.knobs().config()
}

// budget resolves the spec's budget request: omitted fields take the
// default, every field is clamped to maxBudget, and a field it leaves
// unset means the built-in maximum. The result always has all three
// limits set, so submissions are never unmetered.
func (sp SubmitSpec) budget(maxBudget sm.Budget) sm.Budget {
	resolve := func(req, def, limit, builtin int64) int64 {
		if req <= 0 {
			req = def
		}
		if limit <= 0 {
			limit = builtin
		}
		return min(req, limit)
	}
	d, m := defaultSubmitBudget, maxSubmitBudget
	return sm.Budget{
		MaxCycles:   resolve(sp.MaxCycles, d.MaxCycles, maxBudget.MaxCycles, m.MaxCycles),
		MaxInstrs:   resolve(sp.MaxInstrs, d.MaxInstrs, maxBudget.MaxInstrs, m.MaxInstrs),
		MaxMemBytes: resolve(sp.MemFootprintBytes, d.MaxMemBytes, maxBudget.MaxMemBytes, m.MaxMemBytes),
	}
}

// Build is the one way a submission becomes a run, in sisimd, in the
// coordinator's placement and in sisim -submit: it checks the launch
// shape and knobs, resolves the budget request against maxBudget,
// admits the assembly with the production validator (the budget's
// memory field is the admitted footprint), and returns the config, the
// kernel and its content key. A failed admission is an
// *admission.Error.
func (sp SubmitSpec) Build(maxBudget sm.Budget) (config.Config, *sm.Kernel, simcache.Key, error) {
	cfg, err := sp.Config()
	if err != nil {
		return cfg, nil, simcache.Key{}, err
	}
	budget := sp.budget(maxBudget)
	prog, err := admission.ValidateSource(sp.name(), sp.Assembly,
		admission.Limits{MemFootprintBytes: budget.MaxMemBytes})
	if err != nil {
		return cfg, nil, simcache.Key{}, err
	}
	warps, perCTA := sp.warps()
	kernel := &sm.Kernel{
		Program:     prog,
		NumWarps:    warps,
		WarpsPerCTA: perCTA,
		Memory:      mem.NewMemory(),
		Budget:      &budget,
	}
	return cfg, kernel, simcache.KeyOf(cfg, kernel, SubmitWorkloadID), nil
}

// SubmitKernel runs one untrusted submission: Build, then the same
// cache/singleflight/queue path Submit uses. Rejects are structured:
// admission failures map to 400 with the machine-readable reason,
// budget kills surface later as 422 naming the exhausted resource.
func (s *Server) SubmitKernel(ctx context.Context, sp SubmitSpec) (JobResult, error) {
	tr := obs.TraceFrom(ctx)
	admitStart := time.Now()
	if err := s.preflight(ctx); err != nil {
		return JobResult{}, err
	}
	cfg, kernel, key, err := sp.Build(s.opts.MaxBudget)
	var aerr *admission.Error
	switch {
	case errors.As(err, &aerr):
		if c := s.admRejects[aerr.Reason]; c != nil {
			c.Inc()
		}
		s.obs.Logger().Warn("submission rejected",
			"trace_id", obs.TraceIDFrom(ctx), "tenant", TenantFrom(ctx),
			"reason", aerr.Reason, "error", err)
		return JobResult{}, &Error{
			Status: http.StatusBadRequest,
			Msg:    err.Error(),
			Extra:  map[string]any{"reason": aerr.Reason, "pc": aerr.PC},
		}
	case err != nil:
		return JobResult{}, &Error{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	return s.execute(ctx, tr, admitStart, key, SubmitWorkloadID, s.jobTimeout(sp.TimeoutMS),
		func() (config.Config, *sm.Kernel, error) { return cfg, kernel, nil })
}
