// Package stats collects and aggregates simulation counters.
//
// Counters are plain int64 fields so hot-path increments stay cheap;
// aggregation across processing blocks, SMs and runs happens through
// Merge. Derived metrics (speedups, normalized stall fractions — the
// quantities the paper's figures report) live on Derived.
package stats

import (
	"fmt"
	"strings"
	"unsafe"
)

// Counters is the set of raw event counts one simulation produces.
// Per-processing-block counters are summed into SM- and GPU-level
// totals via Merge; Cycles is maxed, since blocks run concurrently.
// Each field is one fact: none is another field or a sum of others.
type Counters struct {
	// Cycles is the simulated execution time. On Merge the maximum is
	// kept: the kernel finishes when its slowest component finishes.
	Cycles int64

	// Issue statistics. A block issues at most once a cycle, so its
	// block-cycles are IssuedInstrs + IdleCycles.
	IssuedInstrs  int64 // instructions issued to the datapath
	IdleCycles    int64 // cycles with no warp able to issue
	ActiveThreads int64 // sum over issued instructions of participating threads

	// Stall detail beside the idle buckets below.
	ExposedLoadStallsDivergent int64 // the part of IdleLoadCycles in divergent code blocks
	FetchStallCycles           int64 // warp-cycles of fetch wait: per idle cycle, the warps waiting on a fetch

	// Idle-cycle attribution: every idle cycle lands in exactly one of
	// the five buckets IdleBuckets lists (priority load > fetch > switch
	// > barrier > no-warp), so their sum equals IdleCycles. The load
	// bucket is the paper's Fig. 3 metric, the exposed load-to-use stall.
	IdleLoadCycles    int64 // a live warp waits on a load/texture scoreboard
	IdleFetchCycles   int64 // an instruction-fetch miss is in flight, no load stall
	IdleSwitchCycles  int64 // only subwarp switch latency / pending select in flight
	IdleBarrierCycles int64 // live warps blocked at convergence barriers
	IdleNoWarpCycles  int64 // no live resident warp had anything outstanding

	// Divergence statistics.
	DivergentBranches int64 // branch executions that splintered the warp
	Reconvergences    int64 // successful BSYNC reconvergence events
	MaxLiveSubwarps   int64 // maximum concurrently live subwarps observed in any warp

	// Subwarp Interleaving events.
	SubwarpStalls  int64 // subwarp-stall transitions (ACTIVE -> STALLED)
	SubwarpWakeups int64 // subwarp-wakeup transitions (STALLED -> READY)
	SubwarpSelects int64 // subwarp-select transitions (READY -> ACTIVE)
	SubwarpYields  int64 // subwarp-yield transitions (ACTIVE -> READY)
	SelectBusy     int64 // cycles spent paying the subwarp switch latency
	TSTOverflow    int64 // stall demotions rejected because the TST was full

	// Memory system. An L0I miss is an L1I access, and an L1D access is
	// one coalesced data line request.
	L1DAccesses int64
	L1DMisses   int64
	L0IAccesses int64
	L0IMisses   int64
	L1IMisses   int64

	// RT core.
	RTTraces         int64 // TraceRay operations issued
	RTTraversalSteps int64 // total BVH node visits performed by the RT core
}

// IdleBucket is one exclusive idle-cycle attribution bucket.
type IdleBucket struct {
	Label string               // sisimd's metric label value
	Name  string               // StallAttribution's row name
	Of    func(Counters) int64 // the bucket's counter
}

// IdleBuckets lists the idle-cycle attribution buckets in
// classification priority order; for every run their values sum to
// IdleCycles.
var IdleBuckets = []IdleBucket{
	{"load", "load-to-use stall", func(c Counters) int64 { return c.IdleLoadCycles }},
	{"fetch", "instruction fetch", func(c Counters) int64 { return c.IdleFetchCycles }},
	{"switch", "subwarp switch", func(c Counters) int64 { return c.IdleSwitchCycles }},
	{"barrier", "barrier wait", func(c Counters) int64 { return c.IdleBarrierCycles }},
	{"nowarp", "no warp", func(c Counters) int64 { return c.IdleNoWarpCycles }},
}

// CounterField is one Counters field: its Go and JSON name, how Merge
// folds it, and where it lies in the struct.
type CounterField struct {
	Name string
	Max  bool    // Merge keeps the maximum; other counters add
	off  uintptr // unsafe.Offsetof the field
}

// Of returns c's field f. An offset, not an accessor closure, keeps c
// on its caller's stack: an argument of an indirect call escapes.
func (f CounterField) Of(c *Counters) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(c), f.off))
}

// CounterFields lists every Counters field once, in declaration order.
// Merge and server.JobResult's JSON encoder both loop over it, so a
// field added to Counters needs one row here and nothing else.
var CounterFields = []CounterField{
	{"Cycles", true, unsafe.Offsetof(Counters{}.Cycles)},
	{"IssuedInstrs", false, unsafe.Offsetof(Counters{}.IssuedInstrs)},
	{"IdleCycles", false, unsafe.Offsetof(Counters{}.IdleCycles)},
	{"ActiveThreads", false, unsafe.Offsetof(Counters{}.ActiveThreads)},
	{"ExposedLoadStallsDivergent", false, unsafe.Offsetof(Counters{}.ExposedLoadStallsDivergent)},
	{"FetchStallCycles", false, unsafe.Offsetof(Counters{}.FetchStallCycles)},
	{"IdleLoadCycles", false, unsafe.Offsetof(Counters{}.IdleLoadCycles)},
	{"IdleFetchCycles", false, unsafe.Offsetof(Counters{}.IdleFetchCycles)},
	{"IdleSwitchCycles", false, unsafe.Offsetof(Counters{}.IdleSwitchCycles)},
	{"IdleBarrierCycles", false, unsafe.Offsetof(Counters{}.IdleBarrierCycles)},
	{"IdleNoWarpCycles", false, unsafe.Offsetof(Counters{}.IdleNoWarpCycles)},
	{"DivergentBranches", false, unsafe.Offsetof(Counters{}.DivergentBranches)},
	{"Reconvergences", false, unsafe.Offsetof(Counters{}.Reconvergences)},
	{"MaxLiveSubwarps", true, unsafe.Offsetof(Counters{}.MaxLiveSubwarps)},
	{"SubwarpStalls", false, unsafe.Offsetof(Counters{}.SubwarpStalls)},
	{"SubwarpWakeups", false, unsafe.Offsetof(Counters{}.SubwarpWakeups)},
	{"SubwarpSelects", false, unsafe.Offsetof(Counters{}.SubwarpSelects)},
	{"SubwarpYields", false, unsafe.Offsetof(Counters{}.SubwarpYields)},
	{"SelectBusy", false, unsafe.Offsetof(Counters{}.SelectBusy)},
	{"TSTOverflow", false, unsafe.Offsetof(Counters{}.TSTOverflow)},
	{"L1DAccesses", false, unsafe.Offsetof(Counters{}.L1DAccesses)},
	{"L1DMisses", false, unsafe.Offsetof(Counters{}.L1DMisses)},
	{"L0IAccesses", false, unsafe.Offsetof(Counters{}.L0IAccesses)},
	{"L0IMisses", false, unsafe.Offsetof(Counters{}.L0IMisses)},
	{"L1IMisses", false, unsafe.Offsetof(Counters{}.L1IMisses)},
	{"RTTraces", false, unsafe.Offsetof(Counters{}.RTTraces)},
	{"RTTraversalSteps", false, unsafe.Offsetof(Counters{}.RTTraversalSteps)},
}

// Merge folds o into c: counts add, Cycles and MaxLiveSubwarps take the
// maximum.
func (c *Counters) Merge(o Counters) {
	for _, f := range CounterFields {
		p, v := f.Of(c), *f.Of(&o)
		if f.Max {
			*p = max(*p, v)
		} else {
			*p += v
		}
	}
}

// Derived holds the normalized metrics the paper's figures report.
type Derived struct {
	IPC                float64 // issued instructions per block-cycle
	ExposedStallFrac   float64 // exposed load-to-use stalls / kernel time (Fig. 3)
	DivergentStallFrac float64 // divergent exposed stalls / kernel time (Fig. 3)
	FetchStallFrac     float64 // exposed fetch stalls / kernel time
	SIMTEfficiency     float64 // active threads per issued instruction / 32
	L1DMissRate        float64
	L0IMissRate        float64
	AvgTraversalSteps  float64 // BVH node visits per traced ray
}

// Derive computes the normalized metrics from raw counters. blocks is
// the number of processing blocks the per-block counters were summed
// over; it converts summed per-block cycle counts into fractions of the
// (max) kernel time.
func (c Counters) Derive(blocks int) Derived {
	var d Derived
	if c.Cycles > 0 && blocks > 0 {
		denom := float64(c.Cycles) * float64(blocks)
		d.IPC = float64(c.IssuedInstrs) / denom
		d.ExposedStallFrac = float64(c.IdleLoadCycles) / denom
		d.DivergentStallFrac = float64(c.ExposedLoadStallsDivergent) / denom
		d.FetchStallFrac = float64(c.IdleFetchCycles) / denom
	}
	if c.IssuedInstrs > 0 {
		d.SIMTEfficiency = float64(c.ActiveThreads) / float64(c.IssuedInstrs) / 32
	}
	if c.L1DAccesses > 0 {
		d.L1DMissRate = float64(c.L1DMisses) / float64(c.L1DAccesses)
	}
	if c.L0IAccesses > 0 {
		d.L0IMissRate = float64(c.L0IMisses) / float64(c.L0IAccesses)
	}
	if c.RTTraces > 0 {
		d.AvgTraversalSteps = float64(c.RTTraversalSteps) / float64(c.RTTraces)
	}
	return d
}

// Speedup returns the relative speedup of 'test' over 'base' as a
// fraction (0.063 == +6.3%). It returns 0 when test has no cycles.
func Speedup(base, test Counters) float64 {
	if test.Cycles <= 0 || base.Cycles <= 0 {
		return 0
	}
	return float64(base.Cycles)/float64(test.Cycles) - 1
}

// Reduction returns the fractional reduction of a metric from base to
// test (0.25 == 25% lower in test). Zero base yields zero.
func Reduction(base, test int64) float64 {
	if base <= 0 {
		return 0
	}
	return 1 - float64(test)/float64(base)
}

// MeanSpeedup aggregates per-application speedup fractions with the
// arithmetic mean of speedup percentages, matching how the paper reports
// "average speedup of 6.3%".
func MeanSpeedup(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range speedups {
		sum += s
	}
	return sum / float64(len(speedups))
}

// StallAttribution decomposes a run's idle cycles into the five
// attribution buckets and renders a paper-style table. The bucket rows
// sum to IdleCycles by construction; the "% time" column is relative to
// all block-cycles (issue + idle).
func StallAttribution(c Counters) *Table {
	idle := c.IdleCycles
	total := c.IssuedInstrs + c.IdleCycles
	frac := func(n, d int64) string {
		if d == 0 {
			return "0.0%"
		}
		return Percent(float64(n) / float64(d))
	}
	tbl := NewTable("Idle-cycle attribution", "bucket", "cycles", "% idle", "% time")
	for _, b := range IdleBuckets {
		v := b.Of(c)
		tbl.AddRow(b.Name, fmt.Sprintf("%d", v), frac(v, idle), frac(v, total))
	}
	tbl.AddRow("total idle", fmt.Sprintf("%d", idle), frac(idle, idle), frac(idle, total))
	return tbl
}

// Percent formats a fraction as a percentage string, e.g. "6.3%".
func Percent(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }

// Table is a lightweight text table used by the experiment harness to
// print paper-style rows.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row. Short rows are padded with empty cells; rows
// longer than the header keep every cell and grow the rendered table
// (earlier versions silently truncated them).
func (t *Table) AddRow(cells ...string) {
	n := len(cells)
	if n < len(t.Header) {
		n = len(t.Header)
	}
	row := make([]string, n)
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// numCols returns the widest row length across header and data rows.
func (t *Table) numCols() int {
	n := len(t.Header)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, t.numCols())
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
