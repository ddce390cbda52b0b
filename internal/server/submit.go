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

// SubmitSpec is the wire form of one untrusted kernel submission:
// raw assembly text for the production assembler, a launch shape, a
// gas budget request, and the same policy knobs JobSpec exposes. All
// budget fields are requests — the server clamps them to its
// configured MaxBudget, and omitted fields take DefaultBudget, so a
// submission always runs fully metered.
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

// submitBudget resolves the spec's budget request against the
// server's policy: omitted fields take the default, every field is
// clamped to the maximum. The result always has all three limits set,
// so submissions are never unmetered.
func (s *Server) submitBudget(sp SubmitSpec) sm.Budget {
	b := s.opts.DefaultBudget
	if sp.MaxCycles > 0 {
		b.MaxCycles = sp.MaxCycles
	}
	if sp.MaxInstrs > 0 {
		b.MaxInstrs = sp.MaxInstrs
	}
	if sp.MemFootprintBytes > 0 {
		b.MaxMemBytes = sp.MemFootprintBytes
	}
	max := s.opts.MaxBudget
	if b.MaxCycles > max.MaxCycles {
		b.MaxCycles = max.MaxCycles
	}
	if b.MaxInstrs > max.MaxInstrs {
		b.MaxInstrs = max.MaxInstrs
	}
	if b.MaxMemBytes > max.MaxMemBytes {
		b.MaxMemBytes = max.MaxMemBytes
	}
	return b
}

// SubmitKernel runs one untrusted submission: static admission with
// the production validator, budget resolution, then the same
// cache/singleflight/queue path Submit uses. Rejects are structured:
// admission failures map to 400 with the machine-readable reason,
// budget kills surface later as 422 naming the exhausted resource.
func (s *Server) SubmitKernel(ctx context.Context, sp SubmitSpec) (JobResult, error) {
	tr := obs.TraceFrom(ctx)
	admitStart := time.Now()
	if err := s.preflight(ctx); err != nil {
		return JobResult{}, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return JobResult{}, &Error{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	budget := s.submitBudget(sp)
	lim := s.opts.SubmitLimits
	lim.MemFootprintBytes = budget.MaxMemBytes
	prog, err := admission.ValidateSource(sp.name(), sp.Assembly, lim)
	if err != nil {
		var aerr *admission.Error
		if errors.As(err, &aerr) {
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
		}
		return JobResult{}, &Error{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	warps, perCTA := sp.warps()
	kernel := &sm.Kernel{
		Program:     prog,
		NumWarps:    warps,
		WarpsPerCTA: perCTA,
		Memory:      mem.NewMemory(),
		Budget:      &budget,
	}
	key := simcache.KeyOf(cfg, kernel, SubmitWorkloadID)
	return s.execute(ctx, tr, admitStart, key, SubmitWorkloadID, s.jobTimeout(sp.TimeoutMS),
		func() (config.Config, *sm.Kernel, error) { return cfg, kernel, nil })
}
