package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"subwarpsim/internal/stats"
)

// AppendJSON appends r's JSON encoding to b: exactly encoding/json's
// compact bytes for r, without reflection. The counters object walks
// stats.CounterFields. Derived values are finite by construction
// (Derive divides only by positive counts). ErrorExtra goes through
// json.Marshal, and is left out if that fails.
func (r *JobResult) AppendJSON(b []byte) []byte {
	b = appendString(append(b, `{"key":`...), r.Key)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	b = appendString(append(b, `,"workload":`...), r.Workload)
	b = appendString(append(b, `,"policy":`...), r.Policy)
	b = strconv.AppendInt(append(b, `,"blocks":`...), int64(r.Blocks), 10)
	b = append(b, `,"counters":`...)
	sep := byte('{')
	for _, f := range stats.CounterFields {
		b = append(append(append(b, sep, '"'), f.Name...), '"', ':')
		b = strconv.AppendInt(b, *f.Of(&r.Counters), 10)
		sep = ','
	}
	d := &r.Derived
	b = appendFloat(append(b, `},"derived":{"IPC":`...), d.IPC)
	b = appendFloat(append(b, `,"ExposedStallFrac":`...), d.ExposedStallFrac)
	b = appendFloat(append(b, `,"DivergentStallFrac":`...), d.DivergentStallFrac)
	b = appendFloat(append(b, `,"FetchStallFrac":`...), d.FetchStallFrac)
	b = appendFloat(append(b, `,"SIMTEfficiency":`...), d.SIMTEfficiency)
	b = appendFloat(append(b, `,"L1DMissRate":`...), d.L1DMissRate)
	b = appendFloat(append(b, `,"L0IMissRate":`...), d.L0IMissRate)
	b = appendFloat(append(b, `,"AvgTraversalSteps":`...), d.AvgTraversalSteps)
	b = append(b, '}')
	if r.Error != "" {
		b = appendString(append(b, `,"error":`...), r.Error)
	}
	if r.ErrorStatus != 0 {
		b = strconv.AppendInt(append(b, `,"error_status":`...), int64(r.ErrorStatus), 10)
	}
	if len(r.ErrorExtra) > 0 {
		if extra, err := json.Marshal(r.ErrorExtra); err == nil {
			b = append(append(b, `,"error_extra":`...), extra...)
		}
	}
	if r.TraceID != "" {
		b = appendString(append(b, `,"trace_id":`...), r.TraceID)
	}
	return append(b, '}')
}

// appendFloat writes f in encoding/json's format: 'e' below 1e-6 and
// from 1e21 on, with a one-digit exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s as encoding/json does: printable ASCII as is,
// but <, > and & as \u003c, \u003e and \u0026. Any other string (a
// control byte, a quote, a backslash, non-ASCII) goes through
// json.Marshal, which is exact.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := len(b)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c < 0x20 || c > 0x7e || c == '"' || c == '\\':
			q, _ := json.Marshal(s)
			return append(b[:start], q...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// bufPool recycles response buffers of up to 64 KiB.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// writeResults writes a 200 whose body is head, the results appended
// into a pooled buffer and comma-separated, tail, and the newline
// json.Encoder ends a value with.
func writeResults(w http.ResponseWriter, head, tail string, results ...JobResult) {
	bp := bufPool.Get().(*[]byte)
	b := append((*bp)[:0], head...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = results[i].AppendJSON(b)
	}
	b = append(append(b, tail...), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	if *bp = b; cap(b) <= 64<<10 {
		bufPool.Put(bp)
	}
}
