package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"subwarpsim/internal/gpu"
	"subwarpsim/internal/server"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
)

// outcome is what one successful operation returned.
type outcome struct {
	key      string
	counters stats.Counters
	cached   bool // answered from a result cache, no simulation
	events   int  // cycle-trace events recorded (recording library ops)
}

// sample is one measured operation: when it was due (open loop; a
// closed loop's operation is due when it is sent), when it was sent and
// when its answer was in hand.
type sample struct {
	req             request
	pass            int
	due, sent, done time.Time
	err             error
	out             outcome
}

// latency is what the caller waited: from the due time to the answer.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// service is send to answer.
func (s sample) service() time.Duration { return s.done.Sub(s.sent) }

// lag is how long after its due time an open-loop request went out.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// executor performs one operation against some target.
type executor func(ctx context.Context, r request) (outcome, error)

// runLib is the library executor: build a fresh kernel, simulate it on
// one worker and, for a recording op, export the Chrome trace to a
// discarding writer. rec, when non-nil, gets a span per layer call.
func runLib(ctx context.Context, r request, rec *recorder, op int) (outcome, error) {
	root := rec.begin("op", -1, op)
	defer rec.end(root)
	b := rec.begin("workload.build", root, op)
	k, err := r.lib.build()
	rec.end(b)
	if err != nil {
		return outcome{}, err
	}
	cfg := r.lib.cfg
	var tr *trace.Recorder
	if r.lib.record {
		tr = trace.NewRecorder()
		cfg.Trace = tr
	}
	g := rec.begin("gpu.run", root, op)
	res, err := gpu.RunContext(ctx, cfg, k, 1)
	rec.end(g)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		x := rec.begin("trace.export", root, op)
		err = tr.WriteChromeTrace(io.Discard)
		rec.end(x)
		if err != nil {
			return outcome{}, err
		}
	}
	out := outcome{counters: res.Counters}
	if tr != nil {
		out.events = tr.Len()
	}
	return out, nil
}

// newHTTPClient returns a client that keeps at most conns keep-alive
// connections to one host, so the harness drives a daemon over a fixed
// number of sockets.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// postExecutor POSTs each request's payload to base and decodes the
// JobResult. Anything but a 200 with a result is a failed operation.
func postExecutor(client *http.Client, base string) executor {
	return func(ctx context.Context, r request) (outcome, error) {
		res, err := post(ctx, client, base+r.path(), r.payload)
		if err != nil {
			return outcome{}, err
		}
		return outcome{key: res.Key, counters: res.Counters, cached: res.Cached}, nil
	}
}

func post(ctx context.Context, client *http.Client, url string, payload []byte) (server.JobResult, error) {
	var res server.JobResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("POST %s: bad body: %w", url, err)
	}
	return res, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runAll executes reqs with the given concurrency, unmeasured (set-up
// priming and warm-up). The first error stops it.
func runAll(ctx context.Context, exec executor, reqs []request, clients int) ([]outcome, error) {
	outs := make([]outcome, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i], errs[i] = exec(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", reqs[i].label, err)
		}
	}
	return outs, nil
}

// window is one measured run.
type window struct {
	samples []sample
	passes  int
}

// runClosed drives clients callers, each sending its next operation as
// soon as the previous one answers. It runs whole passes: once the
// clock passes seconds, callers finish the pass in progress and stop,
// so every run measures the same mix however many passes fit.
func runClosed(ctx context.Context, exec executor, gen generator, clients int, seconds float64) window {
	var (
		mu      sync.Mutex
		samples []sample
		pass    []request
		passNo  = -1
		idx     int
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// take hands out the next operation, or ok=false when the run is over.
	take := func() (r request, p int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if idx == len(pass) {
			if passNo >= 0 && (!time.Now().Before(deadline) || ctx.Err() != nil) {
				return request{}, 0, false
			}
			passNo++
			pass, idx = gen.pass(passNo), 0
		}
		r = pass[idx]
		idx++
		return r, passNo, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, p, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				out, err := exec(ctx, r)
				t1 := time.Now()
				mu.Lock()
				samples = append(samples, sample{req: r, pass: p, due: t0, sent: t0, done: t1, err: err, out: out})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return window{samples: samples, passes: passNo + 1}
}

// runOpen sends on a fixed schedule whatever the answers do: request k
// is due k/rate seconds after the start, and its latency counts from
// that due time, so a stall is charged to every request it delays.
// conns senders share the schedule; when all are busy the next request
// goes out late and its lag says by how much.
func runOpen(ctx context.Context, exec executor, gen generator, conns int, rate, seconds float64) window {
	total := max(1, int(rate*seconds))
	var reqs []request
	var passOf []int
	for p := 0; len(reqs) < total; p++ {
		for _, r := range gen.pass(p) {
			reqs = append(reqs, r)
			passOf = append(passOf, p)
		}
	}
	reqs, passOf = reqs[:total], passOf[:total]
	samples := make([]sample, total)
	for k := range samples {
		samples[k] = sample{req: reqs[k], pass: passOf[k], err: context.Canceled} // until sent
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				out, err := exec(ctx, reqs[k])
				samples[k] = sample{req: reqs[k], pass: passOf[k], due: due, sent: sent, done: time.Now(),
					err: err, out: out}
			}
		}()
	}
	for k := 0; k < total && ctx.Err() == nil; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	return window{samples: samples, passes: passOf[total-1] + 1}
}
