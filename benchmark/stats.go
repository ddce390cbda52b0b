package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sortedCopy returns xs sorted ascending without disturbing the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice
// (0 for an empty one): the smallest value with at least q of the
// samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the midpoint median (mean of the two middle values for an
// even count), the rule Python's statistics.median uses, so the
// harness and the driver agree on what "the median of ten runs" is.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// supportedTail returns the highest of p50/p90/p95/p99 that has at
// least ten samples beyond it in a sample of n, and how many lie
// beyond. A tail with fewer than ten samples past it is one or two
// slow operations, not a percentile; job_ms_p95 is always computed,
// and the report says when the sample does not support it.
func supportedTail(n int) (pct, beyond int) {
	pct = 50
	beyond = n - (n+1)/2
	for _, p := range []int{90, 95, 99} {
		b := n - int(math.Ceil(float64(p)/100*float64(n)))
		if b < 10 {
			break
		}
		pct, beyond = p, b
	}
	return pct, beyond
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s from a caller-supplied uniform variate, so the draw
// sequence is a pure function of the seed.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MiB
// from /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("%s: bad VmHWM line %q", path, sc.Text())
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
