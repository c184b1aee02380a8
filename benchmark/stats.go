package main

import (
	"math"
	"sort"
)

// sortedCopy returns v ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks. Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the 0.5-quantile of v (0 when empty).
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// mean returns the arithmetic mean of v (0 when empty).
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// percentile returns the p-quantile of v (0 when empty).
func percentile(v []float64, p float64) float64 { return quantile(sortedCopy(v), p) }

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method, positions
// (n+1)*k/4) — the arithmetic the driver applies to ten runs, so -repeat
// reports the spread the driver will see. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// supportsPercentile applies the reporting rule for tail latencies: a
// percentile is quoted only when at least ten samples lie beyond it.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

// ratio is a/b with 0 for an empty denominator, so metrics that do not
// apply to a workload read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
