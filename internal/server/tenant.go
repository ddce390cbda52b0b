package server

import (
	"context"
	"sync"
	"time"

	"subwarpsim/internal/obs"
)

// Tenancy: every request carries a tenant identity (the X-Tenant
// header; absent or unusable means DefaultTenant). The tenant keys
// three isolation mechanisms — a token-bucket submission rate limit,
// a queued-jobs quota, and an in-flight quota with weighted-fair
// dequeue (fairqueue.go) — so one hostile or buggy client cannot
// starve the service for everyone else. Tenant names become metric
// label values, so they are sanitized like trace IDs and the distinct
// set is bounded (tenantSet) to keep series cardinality finite.

// DefaultTenant is the identity of requests that carry no (usable)
// X-Tenant header.
const DefaultTenant = "default"

// OverflowTenant absorbs tenants beyond the tracked-set cap: they
// share one bucket, one quota, and one metric series.
const OverflowTenant = "other"

type tenantCtxKey struct{}

// withTenant stores the canonical tenant name in the context.
func withTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFrom returns the canonical tenant name riding ctx, DefaultTenant
// when it has none (direct Submit calls from tests or embedders). The
// coordinator's peer client reads it to forward X-Tenant over a hop.
func TenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok && t != "" {
		return t
	}
	return DefaultTenant
}

// sanitizeTenant bounds client-supplied tenant names by the rule trace
// IDs are bounded by (obs.SanitizeID: printable ASCII, no whitespace or
// quotes, capped length). Unusable names collapse to DefaultTenant.
func sanitizeTenant(name string) string {
	if name = obs.SanitizeID(name); name == "" {
		return DefaultTenant
	}
	return name
}

// tenantSet canonicalizes tenant names under a cardinality cap: the
// first maxTenants distinct names are tracked as themselves, later
// ones collapse into OverflowTenant. Collapsing (rather than
// rejecting) keeps unknown tenants servable while bounding per-tenant
// state and metric series.
type tenantSet struct {
	mu    sync.Mutex
	names map[string]bool
}

func newTenantSet() *tenantSet {
	return &tenantSet{names: map[string]bool{DefaultTenant: true}}
}

func (ts *tenantSet) canon(name string) string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.names[name] {
		return name
	}
	if len(ts.names) >= maxTenants {
		return OverflowTenant
	}
	ts.names[name] = true
	return name
}

// tenantLimiter is a per-tenant token bucket: each tenant accrues
// rate tokens per second up to burst, and each submission spends one.
// rate <= 0 disables limiting entirely (the default, preserving the
// pre-tenancy behavior).
type tenantLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second; <= 0 means unlimited
	burst   float64
	buckets map[string]*tokenBucket
	now     func() time.Time // test seam
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	if burst < 1 {
		burst = 1
	}
	return &tenantLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*tokenBucket),
		now:     time.Now,
	}
}

// allow spends one token from the tenant's bucket, reporting whether
// one was available. New tenants start with a full bucket.
func (l *tenantLimiter) allow(tenant string) bool {
	if l == nil || l.rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	b.last = now
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
