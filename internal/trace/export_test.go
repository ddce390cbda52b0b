package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/export_digests.json from the current exporter")

const digestFile = "testdata/export_digests.json"

// exportDigest pins one exported document. The file was written by the
// reflective json.Encoder exporter this package used to have, so a
// match means the streaming exporter emits the same trace_event
// objects, byte for byte.
type exportDigest struct {
	Events int `json:"events"`
	// Sequence covers, in document order, every event except the
	// end-of-run closes (which the old exporter emitted in map order).
	Sequence string `json:"sequence"`
	// Multiset covers every event, closes included, sorted.
	Multiset string `json:"multiset"`
}

// unitRecorder is the hand-written stream of TestWriteChromeTraceValidJSON:
// it leaves a residency slice and a stall slice open at the end.
func unitRecorder(series bool) *trace.Recorder {
	r := trace.NewRecorder()
	if series {
		r.Series = stats.NewTimeSeries(100)
		r.Sample(3, 4, 6, 1, true)
		r.Sample(4, 4, 5, 2, false)
		r.SampleGap(250, 260, 3, 3, 0)
	}
	emit := func(cycle int64, warp, pc int32, mask bits.Mask, kind trace.Kind, arg int32) {
		r.Emit(cycle, 0, 0, warp, pc, mask, kind, arg)
	}
	emit(0, 0, 0, bits.FullMask, trace.KindIssue, 0)
	emit(4, 0, 0, bits.FullMask, trace.KindScbdSet, 1)
	emit(8, 0, 0, bits.FullMask, trace.KindStall, 1)
	emit(8, 0, 8, bits.Mask(0xFFFF), trace.KindSelectStart, 6)
	emit(14, 0, 8, bits.Mask(0xFFFF), trace.KindSelect, 0)
	emit(600, 0, 0, bits.LaneMask(0), trace.KindWakeup, 1)
	emit(650, 0, 9, bits.FullMask, trace.KindExit, 0)
	// Three warps left mid-flight, so the end-of-run closes have an
	// order to get wrong: open residencies, an open select, open stalls.
	for _, w := range []int32{7, 3, 5} {
		emit(660, w, 2, bits.FullMask, trace.KindIssue, 0)
		emit(661, w, 3, bits.Mask(0xFF), trace.KindStall, 2)
		emit(661, w, 4, bits.Mask(0xFF), trace.KindStall, 3)
		emit(662, w, -1, 0, trace.KindSelectStart, 6)
		emit(663, w, 5, bits.Mask(0xFF00), trace.KindActivate, 0)
	}
	return r
}

// requestSlices is a request-tracer document (what obs.Trace.WritePerfetto
// asks for), with names and args that need JSON escaping.
func requestSlices(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	err := trace.WriteChromeSlices(&b, `request "a<b>&c"`, []trace.Slice{
		{Track: "request", Name: "request", StartUS: 0, DurUS: 900, Args: map[string]any{"trace_id": "t-1", "attempt": 2}},
		{Track: "sm 0", Name: "sm 0", StartUS: 10, DurUS: 0},
		{Track: "queue \\ wait", Name: "queue\twait <é>", StartUS: 12, DurUS: 30, Args: map[string]any{}},
		{Track: "sm 0", Name: "sm 0", StartUS: 400, DurUS: 5, Args: map[string]any{"trace_id": "t-1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// recordKernel simulates one of the traced-run kernels under
// Both,N>=0.5 on one worker with a fresh recorder attached.
func recordKernel(t *testing.T, name string) *trace.Recorder {
	t.Helper()
	var k *sm.Kernel
	var err error
	if p, perr := workload.ProfileByName(name); perr == nil {
		k, err = workload.Megakernel(p)
	} else {
		k, err = workload.BuildByName(name)
	}
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	cfg := config.Default().WithSI(true, config.TriggerHalfStalled)
	cfg.Trace = trace.NewRecorder()
	if _, err := gpu.RunWorkers(cfg, k, 1); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return cfg.Trace
}

func export(t *testing.T, r *trace.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// digest decodes one exported document into its raw trace_event
// objects, checks the envelope and the per-event conventions Perfetto
// files have always had, and hashes the events.
func digest(t *testing.T, doc []byte) exportDigest {
	t.Helper()
	var out struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("invalid document: %v", err)
	}
	if out.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", out.DisplayTimeUnit)
	}

	firstMeta := len(out.TraceEvents)
	for i, raw := range out.TraceEvents {
		var ev struct {
			Ph   string          `json:"ph"`
			Args json.RawMessage `json:"args"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v: %s", i, err, raw)
		}
		if ev.Ph == "M" {
			if i < firstMeta {
				firstMeta = i
			}
			if !bytes.Contains(raw, []byte(`"ts":0,`)) || !bytes.Contains(raw, []byte(`"tid":`)) {
				t.Errorf("metadata event %d lacks \"ts\":0 or \"tid\": %s", i, raw)
			}
		}
		if keys := objectKeys(t, ev.Args); !sort.StringsAreSorted(keys) {
			t.Errorf("event %d args keys %v are not alphabetical: %s", i, keys, raw)
		}
	}
	// The end-of-run closes are the subwarp slices directly before the
	// track metadata.
	closesFrom := firstMeta
	for closesFrom > 0 && bytes.Contains(out.TraceEvents[closesFrom-1], []byte(`"cat":"subwarp"`)) {
		closesFrom--
	}

	seq := sha256.New()
	all := make([]string, 0, len(out.TraceEvents))
	for i, raw := range out.TraceEvents {
		if i < closesFrom || i >= firstMeta {
			seq.Write(raw)
			seq.Write([]byte{'\n'})
		}
		all = append(all, string(raw))
	}
	sort.Strings(all)
	multi := sha256.Sum256([]byte(strings.Join(all, "\n")))
	return exportDigest{
		Events:   len(out.TraceEvents),
		Sequence: hex.EncodeToString(seq.Sum(nil)),
		Multiset: hex.EncodeToString(multi[:]),
	}
}

// objectKeys returns the keys of a JSON object in document order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		t.Fatalf("args %s: %v", raw, err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatalf("args %s: %v", raw, err)
		}
		keys = append(keys, k.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("args %s: %v", raw, err)
		}
	}
	return keys
}

// TestExportMatchesPinnedDigests holds the exporter to the documents
// the reflective exporter produced for the unit stream (with and
// without a time series), for two traced-run kernels, and for a request
// tracer's slices.
func TestExportMatchesPinnedDigests(t *testing.T) {
	got := map[string]exportDigest{
		"unit":        digest(t, export(t, unitRecorder(false))),
		"unit+series": digest(t, export(t, unitRecorder(true))),
		"Ctrl":        digest(t, export(t, recordKernel(t, "Ctrl"))),
		"bfs":         digest(t, export(t, recordKernel(t, "bfs"))),
		"slices":      digest(t, requestSlices(t)),
	}
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]exportDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: exported document changed:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d documents, the test exports %d", digestFile, len(want), len(got))
	}
}

// TestExportDeterministic requires identical bytes from two exports of
// one recorder and from one export each of two identical runs: the
// end-of-run closes must not inherit Go's map iteration order.
func TestExportDeterministic(t *testing.T) {
	unit := unitRecorder(true)
	first := export(t, unit)
	for i := 0; i < 8; i++ {
		if again := export(t, unit); !bytes.Equal(first, again) {
			t.Fatalf("export %d of one recorder differs from the first", i+2)
		}
	}
	if other := export(t, unitRecorder(true)); !bytes.Equal(first, other) {
		t.Fatal("two identical hand-written streams export differently")
	}
	a, b := recordKernel(t, "Ctrl"), recordKernel(t, "Ctrl")
	if a.Len() == 0 {
		t.Fatal("run recorded nothing; the comparison is vacuous")
	}
	ea := export(t, a)
	if !bytes.Equal(ea, export(t, a)) {
		t.Fatal("two exports of one recorded run differ")
	}
	if !bytes.Equal(ea, export(t, b)) {
		t.Fatal("two identical runs export differently")
	}
}
