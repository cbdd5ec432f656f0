package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency distribution may be reported
// at, from the median outwards.
var tailCandidates = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// rank returns the one-based nearest-rank index of quantile q among n
// sorted samples: the smallest k with k/n >= q.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile returns the nearest-rank quantile q of sorted, or NaN when it is
// empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// supported reports whether n samples leave at least ten beyond the
// quantile q, the rule for reporting a percentile at all.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= 10
}

// tailQuantile returns the highest candidate percentile that n samples
// support, or 0 when even the median is unsupported.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailCandidates {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle pair for even
// lengths), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
