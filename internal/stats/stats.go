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
)

// Counters is the set of raw event counts one simulation produces.
// Per-processing-block counters are summed into SM- and GPU-level
// totals via Merge; Cycles is maxed, since blocks run concurrently.
type Counters struct {
	// Cycles is the simulated execution time. On Merge the maximum is
	// kept: the kernel finishes when its slowest component finishes.
	Cycles int64

	// Issue statistics.
	IssuedInstrs  int64 // instructions issued to the datapath
	IssueCycles   int64 // cycles in which the block issued an instruction
	IdleCycles    int64 // cycles with no warp able to issue
	ActiveThreads int64 // sum over issued instructions of participating threads

	// Exposed stall characterisation (the paper's Fig. 3 metric):
	// cycles when no warp in the block can issue and at least one live
	// warp waits on an outstanding load/texture scoreboard.
	ExposedLoadStalls          int64
	ExposedLoadStallsDivergent int64 // subset attributed to divergent code blocks
	FetchStallCycles           int64 // cycles the issue-selected warp waited on instruction fetch
	ExposedFetchStalls         int64 // idle cycles attributable to instruction fetch misses
	BarrierStallCycles         int64 // idle cycles where all warps sat at BSYNC/blocked

	// Idle-cycle attribution: every idle cycle lands in exactly one of
	// these five buckets (priority load > fetch > switch > barrier >
	// no-warp), so their sum equals IdleCycles. StallAttribution renders
	// the decomposition as a paper-style (Fig. 3) table.
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

	// Memory system.
	L1DAccesses  int64
	L1DMisses    int64
	L0IAccesses  int64
	L0IMisses    int64
	L1IAccesses  int64
	L1IMisses    int64
	LinesFetched int64 // coalesced data line requests issued

	// RT core.
	RTTraces         int64 // TraceRay operations issued
	RTTraversalSteps int64 // total BVH node visits performed by the RT core
}

// Merge folds o into c: counts add, Cycles and MaxLiveSubwarps take the
// maximum.
func (c *Counters) Merge(o Counters) {
	if o.Cycles > c.Cycles {
		c.Cycles = o.Cycles
	}
	if o.MaxLiveSubwarps > c.MaxLiveSubwarps {
		c.MaxLiveSubwarps = o.MaxLiveSubwarps
	}
	c.IssuedInstrs += o.IssuedInstrs
	c.IssueCycles += o.IssueCycles
	c.IdleCycles += o.IdleCycles
	c.ActiveThreads += o.ActiveThreads
	c.ExposedLoadStalls += o.ExposedLoadStalls
	c.ExposedLoadStallsDivergent += o.ExposedLoadStallsDivergent
	c.FetchStallCycles += o.FetchStallCycles
	c.ExposedFetchStalls += o.ExposedFetchStalls
	c.BarrierStallCycles += o.BarrierStallCycles
	c.IdleLoadCycles += o.IdleLoadCycles
	c.IdleFetchCycles += o.IdleFetchCycles
	c.IdleSwitchCycles += o.IdleSwitchCycles
	c.IdleBarrierCycles += o.IdleBarrierCycles
	c.IdleNoWarpCycles += o.IdleNoWarpCycles
	c.DivergentBranches += o.DivergentBranches
	c.Reconvergences += o.Reconvergences
	c.SubwarpStalls += o.SubwarpStalls
	c.SubwarpWakeups += o.SubwarpWakeups
	c.SubwarpSelects += o.SubwarpSelects
	c.SubwarpYields += o.SubwarpYields
	c.SelectBusy += o.SelectBusy
	c.TSTOverflow += o.TSTOverflow
	c.L1DAccesses += o.L1DAccesses
	c.L1DMisses += o.L1DMisses
	c.L0IAccesses += o.L0IAccesses
	c.L0IMisses += o.L0IMisses
	c.L1IAccesses += o.L1IAccesses
	c.L1IMisses += o.L1IMisses
	c.LinesFetched += o.LinesFetched
	c.RTTraces += o.RTTraces
	c.RTTraversalSteps += o.RTTraversalSteps
}

// Derived holds the normalized metrics the paper's figures report.
type Derived struct {
	Cycles             int64
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
	d := Derived{Cycles: c.Cycles}
	if c.Cycles > 0 && blocks > 0 {
		denom := float64(c.Cycles) * float64(blocks)
		d.IPC = float64(c.IssuedInstrs) / denom
		d.ExposedStallFrac = float64(c.ExposedLoadStalls) / denom
		d.DivergentStallFrac = float64(c.ExposedLoadStallsDivergent) / denom
		d.FetchStallFrac = float64(c.ExposedFetchStalls) / denom
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
	total := c.IssueCycles + c.IdleCycles
	frac := func(n, d int64) string {
		if d == 0 {
			return "0.0%"
		}
		return Percent(float64(n) / float64(d))
	}
	tbl := NewTable("Idle-cycle attribution", "bucket", "cycles", "% idle", "% time")
	for _, row := range []struct {
		name string
		v    int64
	}{
		{"load-to-use stall", c.IdleLoadCycles},
		{"instruction fetch", c.IdleFetchCycles},
		{"subwarp switch", c.IdleSwitchCycles},
		{"barrier wait", c.IdleBarrierCycles},
		{"no warp", c.IdleNoWarpCycles},
	} {
		tbl.AddRow(row.name, fmt.Sprintf("%d", row.v), frac(row.v, idle), frac(row.v, total))
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
