package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subwarpsim/internal/stats"
)

// marshalled is the body encoding/json writes for v through the
// response encoder writeJSON uses: compact, HTML-escaped, one newline.
func marshalled(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAppendJSON fails unless AppendJSON writes exactly encoding/json's
// bytes for r, appended after a non-empty prefix.
func checkAppendJSON(t *testing.T, name string, r JobResult) {
	t.Helper()
	want := marshalled(t, r)
	got := append(r.AppendJSON([]byte("prefix")), '\n')
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Errorf("%s: AppendJSON wrote\n%s\nencoding/json writes\n%s", name, got[len("prefix"):], want)
	}
}

// TestJobResultJSONMatchesMarshal: the hand-appended encoder writes
// encoding/json's compact bytes for real results of one spec per key
// corpus stratum (every app, family and microbenchmark, the corpus's
// knob variants in turn), both sample submissions, the error entries
// the front emits, and a whole batch body.
func TestJobResultJSONMatchesMarshal(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	var all []JobResult
	// keyCorpusSpecs lists each base spec under seven knob variants in
	// turn; base b takes variant b mod 7, so every variant is covered.
	specs := keyCorpusSpecs()
	if len(specs) != 19*7 {
		t.Fatalf("key corpus has %d specs, want 19 strata (10 apps, 3 families, 6 microbenchmarks) x 7", len(specs))
	}
	for b := 0; b < 19; b++ {
		spec := specs[7*b+b%7]
		res, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		res.TraceID = "trace-" + res.Workload
		checkAppendJSON(t, res.Workload+" "+res.Policy, res)
		all = append(all, res)
	}

	for _, name := range []string{"saxpy.asm", "divergent_reduce.asm"} {
		src, err := os.ReadFile(filepath.Join("../../examples/submissions", name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SubmitKernel(ctx, SubmitSpec{Name: name, Assembly: string(src), SI: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAppendJSON(t, name, res)
		all = append(all, res)
	}

	_, killErr := s.SubmitKernel(ctx, SubmitSpec{Assembly: spinAsm, MaxCycles: 3000})
	if errStatus(killErr) != http.StatusUnprocessableEntity {
		t.Fatalf("budget kill: %v", killErr)
	}
	key, _ := JobSpec{Microbench: 4}.Key()
	for name, err := range map[string]error{
		"budget kill": killErr,
		"batch 429": &Error{Status: http.StatusTooManyRequests, Msg: "tenant queue quota exceeded, retry later",
			RetryAfter: 3, Extra: s.backpressureExtra("team-<a&b>", 3)},
		"quarantine": &Error{Status: http.StatusUnprocessableEntity, Msg: "key quarantined after a simulation panic",
			Extra: map[string]any{"quarantined": true, "key": key.String()}},
		"plain 400": &Error{Status: http.StatusBadRequest, Msg: `bad job spec: unknown field "x"`},
	} {
		res := ErrorResult("micro/4", err)
		checkAppendJSON(t, name, res)
		all = append(all, res)
	}

	rec := httptest.NewRecorder()
	writeResults(rec, `{"results":[`, "]}", all...)
	if want := marshalled(t, batchResponse{Results: all}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("batch body differs from encoding/json's:\n%s\nwant\n%s", rec.Body.Bytes(), want)
	}
}

// FuzzJobResultJSON: for any counters, finite floats and strings,
// AppendJSON writes encoding/json's bytes. The seeds cover the float
// format's edges (-0, subnormals, the 'e' thresholds 1e-6 and 1e21) and
// strings encoding/json escapes (<>&, U+2028, invalid UTF-8, control
// bytes, quotes).
func FuzzJobResultJSON(f *testing.F) {
	for _, seed := range []struct {
		s    string
		x, y float64
		n    int64
	}{
		{"micro/4", 0.5, 1, 42},
		{"Both,N>=0.5", math.Copysign(0, -1), 5e-324, -1},
		{"<>&", 1e-7, 1e21, math.MaxInt64},
		{"line\u2028sep\u2029", 1e-6, 9.999999999999999e20, math.MinInt64},
		{"bad\xffutf8", 2.2250738585072014e-308, 123456789.125, 0},
		{"tab\tquote\"back\\slash\x7f", -1.5e-10, 1.7976931348623157e308, 7},
	} {
		f.Add(seed.s, seed.x, seed.y, seed.n, uint8(7), []byte("counters"))
	}
	f.Fuzz(func(t *testing.T, s string, x, y float64, n int64, flags uint8, words []byte) {
		finite := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		x, y = finite(x), finite(y)
		r := JobResult{
			Key: s, Workload: strings.ToUpper(s), Policy: s + ">", Blocks: int(n),
			Cached: flags&1 != 0, Coalesced: flags&2 != 0,
			Derived: stats.Derived{
				IPC: x, ExposedStallFrac: y, DivergentStallFrac: -x, FetchStallFrac: finite(x * y),
				SIMTEfficiency: x / 3, L1DMissRate: finite(y * 1e-300), L0IMissRate: finite(x * 1e300),
				AvgTraversalSteps: math.Nextafter(x, 1),
			},
		}
		for i, fl := range stats.CounterFields {
			v := n + int64(i)
			if len(words) >= 8*(i+1) {
				v = int64(binary.LittleEndian.Uint64(words[8*i:]))
			}
			*fl.Of(&r.Counters) = v
		}
		if flags&4 != 0 {
			r.Error, r.ErrorStatus, r.TraceID = s, int(n%600), s+s
			r.ErrorExtra = map[string]any{"msg": s, "x": x, "n": n, "ok": true}
		}
		checkAppendJSON(t, "fuzzed", r)
	})
}

// BenchmarkHitHandler prices a cache hit through the whole front:
// POST /v1/jobs {"microbench":4}, already cached, through
// Server.Handler() (trace and tenant middleware, body decode, Run, the
// log line, the response write).
func BenchmarkHitHandler(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Drain(context.Background())
	h := s.Handler()
	hit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"microbench":4}`)))
		return rec
	}
	if rec := hit(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	if rec := hit(); !strings.Contains(rec.Body.String(), `"cached":true`) {
		b.Fatalf("second request is not a hit: %s", rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
