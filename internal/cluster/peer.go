package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
)

// Request outcomes recorded per peer in
// sisimd_peer_requests_total{peer,outcome}. The set is closed so every
// series is pre-registered and visible from the first scrape.
const (
	outcomeOK        = "ok"        // usable response relayed (200 or a deterministic 4xx/500)
	outcomeRerouted  = "rerouted"  // transport error or 502/503/504; breaker fed, next peer tried
	outcomeThrottled = "throttled" // peer said 429; alive but saturated, next peer tried
)

var outcomes = []string{outcomeOK, outcomeRerouted, outcomeThrottled}

// peer is one worker daemon as the coordinator sees it: base URL,
// in-flight count (the bounded-load signal), its circuit breaker (the
// PR 4 degradation ladder, per peer), and its pre-registered outcome
// counters.
type peer struct {
	name   string // label value and ring node name (host:port)
	url    string // base URL, no trailing slash
	client *http.Client

	br       *simcache.Breaker
	inflight atomic.Int64
	reqs     map[string]*obs.Counter
}

// peerName derives the ring/label name from a peer URL: the host:port
// when it parses, the raw string otherwise.
func peerName(raw string) string {
	if u, err := url.Parse(raw); err == nil && u.Host != "" {
		return u.Host
	}
	return strings.TrimPrefix(strings.TrimPrefix(raw, "https://"), "http://")
}

// Run implements server.Runner across one network hop: marshal the
// spec, POST it to the endpoint that serves it with the tenant and
// trace identities riding ctx forwarded as headers, and decode the
// answer — a 200 into the JobResult, any other status into the
// *server.Error the worker's front encoded. This is the only place a
// response body is parsed back. Any other error means the peer never
// produced a usable response (transport failure, unreadable or
// undecodable body): the caller feeds the breaker and reroutes.
func (p *peer) Run(ctx context.Context, req server.Request) (server.JobResult, error) {
	var res server.JobResult
	payload, err := json.Marshal(req.Spec())
	if err != nil {
		return res, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+req.Path(), bytes.NewReader(payload))
	if err != nil {
		return res, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", server.TenantFrom(ctx))
	if id := obs.TraceIDFrom(ctx); id != "" {
		hreq.Header.Set("X-Trace-ID", id)
	}
	resp, err := p.client.Do(hreq)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxBodyBytes))
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, server.DecodeError(resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("undecodable response from peer %s: %w", p.name, err)
	}
	return res, nil
}

// retryableStatus reports peer responses that mean "this node cannot
// serve right now" rather than "this job is bad": they feed the
// breaker and reroute. Deterministic failures (4xx, plain 500) would
// fail identically on every node, so they are relayed, not retried.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}
