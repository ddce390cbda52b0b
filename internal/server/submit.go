package server

import (
	"context"
	"encoding/json"
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

// submitWorkloadID is the workload half of every submission's cache
// key. A single constant (rather than the client-chosen name) keeps
// the per-workload metric label set bounded; the program text itself
// is what distinguishes submissions in the content address.
const submitWorkloadID = "submit"

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

// name returns the spec's display name, bounded the same way tenant
// names are (it lands in logs and error strings).
func (sp SubmitSpec) name() string {
	if sp.Name == "" || len(sp.Name) > 64 {
		return "submission"
	}
	for _, c := range sp.Name {
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return "submission"
		}
	}
	return sp.Name
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
	case sp.SI && sp.DWS:
		return fmt.Errorf("spec sets both si and dws; pick one")
	case sp.TimeoutMS < 0:
		return fmt.Errorf("negative timeout_ms is invalid")
	}
	if _, err := ParseTrigger(sp.Trigger); err != nil {
		return err
	}
	if _, err := ParsePolicy(sp.Policy); err != nil {
		return err
	}
	if _, err := ParseOrder(sp.Order); err != nil {
		return err
	}
	return nil
}

// Config builds the architecture configuration for the submission,
// applying the same knob mapping as JobSpec.Config.
func (sp SubmitSpec) Config() (config.Config, error) {
	cfg := config.Default()
	if err := sp.Validate(); err != nil {
		return cfg, err
	}
	order, _ := ParseOrder(sp.Order)
	cfg.Order = order
	policy, _ := ParsePolicy(sp.Policy)
	cfg.SchedPolicy = policy
	if sp.DWS {
		cfg = cfg.WithDWS()
	} else if sp.SI {
		trigger, _ := ParseTrigger(sp.Trigger)
		cfg = cfg.WithSI(sp.Yield, trigger)
	}
	return cfg, cfg.Validate()
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
		return JobResult{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	cfg.Faults = s.opts.Faults
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
				"trace_id", obs.TraceIDFrom(ctx), "tenant", tenantFrom(ctx),
				"reason", aerr.Reason, "error", err)
			return JobResult{}, &apiError{
				status: http.StatusBadRequest,
				msg:    err.Error(),
				extra:  map[string]any{"reason": aerr.Reason, "pc": aerr.PC},
			}
		}
		return JobResult{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	warps, perCTA := sp.warps()
	kernel := &sm.Kernel{
		Program:     prog,
		NumWarps:    warps,
		WarpsPerCTA: perCTA,
		Memory:      mem.NewMemory(),
		Budget:      &budget,
	}
	key := simcache.KeyOf(cfg, kernel, submitWorkloadID)
	return s.execute(ctx, tr, admitStart, key, cfg, kernel,
		submitWorkloadID, s.jobTimeout(sp.TimeoutMS))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp SubmitSpec
	if err := json.NewDecoder(r.Body).Decode(&sp); err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "bad submission: " + err.Error()})
		return
	}
	ctx := r.Context()
	res, err := s.SubmitKernel(ctx, sp)
	if err != nil {
		s.obs.Logger().Warn("submission failed",
			"trace_id", obs.TraceIDFrom(ctx), "tenant", tenantFrom(ctx),
			"name", sp.name(), "status", errStatus(err), "error", err)
		writeError(w, err)
		return
	}
	s.obs.Logger().Info("submission complete",
		"trace_id", obs.TraceIDFrom(ctx), "tenant", tenantFrom(ctx),
		"key", res.Key, "cached", res.Cached, "coalesced", res.Coalesced)
	respondEnd := stageTimer(s, obs.TraceFrom(ctx), "respond")
	writeJSON(w, http.StatusOK, res)
	respondEnd()
}
