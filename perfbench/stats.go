package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// percentile returns the q-th percentile (0 < q <= 100) of sorted by
// nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// reportable says whether at least ten samples lie beyond the q-th
// percentile of n samples, the rule for reporting a percentile.
func reportable(n int, q float64) bool {
	return float64(n)*(100-q)/100 >= 10
}

// topPercentile is the highest percentile of n samples with ten
// samples beyond it.
func topPercentile(n int) float64 {
	return 100 - 1000/float64(n)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// modeSpread is the largest ratio allowed between the latencies five
// percentile points either side of a reported percentile. A wider gap
// means the percentile sits between two latency modes, where a small
// shift in the mix moves it a lot.
const modeSpread = 1.15

// modeCheck compares the latency five percentile points below and
// above percentile q (the upper point capped at the highest percentile
// with ten samples beyond it) and writes one line to w. It reports
// whether the percentile sits inside one mode.
func modeCheck(w io.Writer, name string, sorted []float64, q float64) bool {
	lo, hi := q-5, math.Min(q+5, topPercentile(len(sorted)))
	loV, hiV := percentile(sorted, lo), percentile(sorted, hi)
	ok := hiV <= loV*modeSpread
	verdict := "ok"
	if !ok {
		verdict = "FLAGGED: percentile sits between latency modes"
	}
	fmt.Fprintf(w, "mode-check %-16s p%.4g=%.3f p%.4g=%.3f p%.4g=%.3f n=%d %s\n",
		name, lo, loV, q, percentile(sorted, q), hi, hiV, len(sorted), verdict)
	return ok
}
