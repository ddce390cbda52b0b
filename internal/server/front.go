package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"subwarpsim/internal/faults"
	"subwarpsim/internal/obs"
)

// The request pipeline has one seam, Runner, and one HTTP front written
// over it. A node (*Server), the coordinator's peer client and the
// coordinator itself all implement Runner, so "run this request" is the
// same call whether it ends in the local worker pool, across one
// network hop, or around the ring; the front below is the only place a
// request is decoded, logged, error-mapped and JSON-written.

// MaxBodyBytes bounds every request body the front reads and every
// peer response the cluster coordinator buffers: a full batch fits
// comfortably, a hostile body cannot exhaust memory before admission's
// own limits get to look at it.
const MaxBodyBytes = 16 << 20

// Request is one unit of work for a Runner. Exactly one field is set:
// Job for a catalogued workload (POST /v1/jobs), Kernel for an
// untrusted assembly submission (POST /v1/submit).
type Request struct {
	Job    *JobSpec
	Kernel *SubmitSpec
}

// Path is the endpoint whose body is the request's Spec.
func (r Request) Path() string {
	if r.Kernel != nil {
		return "/v1/submit"
	}
	return "/v1/jobs"
}

// Spec is the request's wire body: the JSON-codable spec it carries.
func (r Request) Spec() any {
	if r.Kernel != nil {
		return r.Kernel
	}
	return r.Job
}

// Runner runs one request to completion. Tenant and trace identity
// ride ctx. A failure the pipeline itself produced is an *Error; any
// other error means the runner could not be reached at all (the peer
// client's transport failures), which callers treat as "try elsewhere".
type Runner interface {
	Run(ctx context.Context, req Request) (JobResult, error)
}

var _ Runner = (*Server)(nil)

// Run implements Runner on the node itself.
func (s *Server) Run(ctx context.Context, req Request) (JobResult, error) {
	switch {
	case req.Kernel != nil:
		return s.SubmitKernel(ctx, *req.Kernel)
	case req.Job != nil:
		return s.Submit(ctx, *req.Job)
	}
	return JobResult{}, &Error{Status: http.StatusBadRequest, Msg: "request carries no spec"}
}

// Error is the pipeline's one typed failure: the HTTP status it maps
// to, an optional Retry-After hint (seconds), and optional extra JSON
// body fields. writeError is its only encoder and DecodeError its only
// decoder, so an error crosses a coordinator hop without changing.
type Error struct {
	Status     int
	Msg        string
	RetryAfter int
	Extra      map[string]any
}

func (e *Error) Error() string { return e.Msg }

func errStatus(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Status
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError turns an error into its HTTP response: status, the
// Retry-After header, and a JSON body of "error" plus the extra fields.
func writeError(w http.ResponseWriter, err error) {
	status := errStatus(err)
	body := map[string]any{"error": err.Error()}
	var e *Error
	if errors.As(err, &e) {
		if e.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
		} else if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		for k, v := range e.Extra {
			body[k] = v
		}
	}
	writeJSON(w, status, body)
}

// DecodeError is writeError's inverse: it rebuilds the *Error from a
// non-200 response. Every 429 that hints more than the default second
// also carries retry_after_sec in its body, so the header is not needed
// to recover RetryAfter.
func DecodeError(status int, body []byte) *Error {
	e := &Error{Status: status}
	var m map[string]any
	if json.Unmarshal(body, &m) == nil {
		e.Msg, _ = m["error"].(string)
		delete(m, "error")
		if ra, ok := m["retry_after_sec"].(float64); ok && ra >= 1 {
			e.RetryAfter = int(ra)
		}
		if len(m) > 0 {
			e.Extra = m
		}
	}
	if e.Msg == "" {
		e.Msg = http.StatusText(status)
	}
	return e
}

// ErrorResult builds the per-entry error form of a JobResult,
// preserving the Error's status and structured fields.
func ErrorResult(workloadID string, err error) JobResult {
	res := JobResult{Workload: workloadID, Error: err.Error(), ErrorStatus: errStatus(err)}
	var e *Error
	if errors.As(err, &e) && len(e.Extra) > 0 {
		res.ErrorExtra = make(map[string]any, len(e.Extra))
		for k, v := range e.Extra {
			res.ErrorExtra[k] = v
		}
	}
	return res
}

// front is the HTTP API over one Runner and one batch scheduler. s
// supplies everything that is the node's own whichever topology is
// being served: observability, tenancy, limits, and the endpoints that
// are never routed.
type front struct {
	s     *Server
	run   Runner
	batch func(context.Context, []JobSpec) []JobResult
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz        liveness (503 while draining) + build info
//	GET  /metrics        metrics: Prometheus text exposition when the
//	                     Accept header asks for text/plain, the
//	                     backward-compatible JSON snapshot otherwise
//	GET  /debug/events   bounded ring of operational incidents
//	GET  /debug/traces   recent request trace IDs
//	GET  /debug/traces/{id}  one trace as Perfetto/Chrome trace JSON
//	GET  /v1/apps        application trace catalogue
//	POST /v1/jobs        run one JobSpec
//	POST /v1/batch       run {"jobs": [JobSpec...]}, coalescing duplicates
//	POST /v1/submit      validate and run one untrusted SubmitSpec kernel
//
// Every request is traced: a client-provided X-Trace-ID header is
// adopted (else one is generated), echoed on the response, propagated
// through the job path via context, and retained in /debug/traces.
// Every request also carries a tenant identity (the X-Tenant header,
// DefaultTenant when absent) that keys the rate limiter, the queue
// quotas, and weighted-fair dequeue. Request bodies are bounded by
// MaxBodyBytes (413 beyond it).
func (s *Server) Handler() http.Handler {
	return NewHandler(s, "request", s, s.fanOut, nil)
}

// NewHandler mounts the API documented on Server.Handler over any
// Runner and batch scheduler: a node passes itself and plain fan-out,
// the cluster coordinator passes itself and its scatter-gather. label
// names the root span of every request trace; mount, when non-nil,
// adds the caller's own routes inside the same middleware.
func NewHandler(s *Server, label string, run Runner,
	batch func(context.Context, []JobSpec) []JobResult, mount func(*http.ServeMux)) http.Handler {
	f := &front{s: s, run: run, batch: batch}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleDebugTrace)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.handleRun(w, r, "job spec", Request{Job: new(JobSpec)})
	})
	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		f.handleRun(w, r, "submission", Request{Kernel: new(SubmitSpec)})
	})
	mux.HandleFunc("POST /v1/batch", f.handleBatch)
	if mount != nil {
		mount(mux)
	}
	return s.traceMiddleware(label, mux)
}

// traceMiddleware gives every request a trace and a tenant: adopt the
// client's X-Trace-ID (or mint one), echo it on the response, thread it
// through the context next to the canonical tenant (which bounds both
// per-tenant state and label values), and retain the finished trace
// for /debug/traces.
func (s *Server) traceMiddleware(label string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(obs.SanitizeID(r.Header.Get("X-Trace-ID")))
		w.Header().Set("X-Trace-ID", tr.ID)
		ctx := obs.WithTrace(r.Context(), tr)
		ctx = withTenant(ctx, s.tenantNames.canon(sanitizeTenant(r.Header.Get("X-Tenant"))))
		end := tr.StartSpan(label + " " + r.Method + " " + r.URL.Path)
		next.ServeHTTP(w, r.WithContext(ctx))
		end()
		s.obs.Traces.Add(tr)
	})
}

// decodeBody reads one bounded JSON body into v. what names the body
// in the 400 a malformed one gets; an oversized one gets a 413.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooBig):
		return &Error{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			Extra:  map[string]any{"max_body_bytes": tooBig.Limit},
		}
	}
	return &Error{Status: http.StatusBadRequest, Msg: "bad " + what + ": " + err.Error()}
}

// handleRun serves /v1/jobs and /v1/submit: decode the spec req points
// at (what names it in a decode error), run it, log the outcome once,
// and write the result or the error.
func (f *front) handleRun(w http.ResponseWriter, r *http.Request, what string, req Request) {
	ctx := r.Context()
	err := decodeBody(w, r, what, req.Spec())
	var res JobResult
	if err == nil {
		res, err = f.run.Run(ctx, req)
	}
	if err != nil {
		f.s.obs.Logger().Warn("request failed",
			"trace_id", obs.TraceIDFrom(ctx), "tenant", TenantFrom(ctx), "path", req.Path(),
			"status", errStatus(err), "error", err)
		writeError(w, err)
		return
	}
	f.s.obs.Logger().Info("request complete",
		"trace_id", obs.TraceIDFrom(ctx), "tenant", TenantFrom(ctx), "path", req.Path(),
		"key", res.Key, "workload", res.Workload, "cached", res.Cached, "coalesced", res.Coalesced)
	respondEnd := stageTimer(f.s, obs.TraceFrom(ctx), "respond")
	writeJSON(w, http.StatusOK, res)
	respondEnd()
}

// batchRequest is the /v1/batch payload.
type batchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// batchResponse preserves request order; failed items carry Error and
// empty result fields.
type batchResponse struct {
	Results []JobResult `json:"results"`
}

// handleBatch is the /v1/batch prologue — decode, the batch fault
// site, the empty and limit checks — over whichever scheduler the
// topology brings. Results[i] always answers Jobs[i].
func (f *front) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := f.admitBatch(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: f.batch(r.Context(), req.Jobs)})
}

func (f *front) admitBatch(w http.ResponseWriter, r *http.Request, req *batchRequest) error {
	if err := decodeBody(w, r, "batch", req); err != nil {
		return err
	}
	if err := f.s.opts.Faults.FireCtx(r.Context(), faults.SiteServerBatch); err != nil {
		return &Error{Status: http.StatusServiceUnavailable, Msg: "batch fault: " + err.Error()}
	}
	if len(req.Jobs) == 0 {
		return &Error{Status: http.StatusBadRequest, Msg: "batch has no jobs"}
	}
	if max := f.s.opts.MaxBatch; len(req.Jobs) > max {
		return &Error{Status: http.StatusBadRequest,
			Msg: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Jobs), max)}
	}
	return nil
}
