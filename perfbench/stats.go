package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate percentiles of the tail rule, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)]
}

// rank is the zero-based nearest-rank index of the p-th percentile in n
// sorted samples.
func rank(n int, p float64) int {
	// The tolerance keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from moving the rank up one.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile that still has at least minBeyond samples strictly
// beyond it. ok is false when n is too small for even the median.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-1-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overhead is the tracing overhead: the traced minus the untraced
// median, times f (0 unless both sides have samples).
func overhead(traced, plain []float64, f float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return f * (median(traced) - median(plain))
}
