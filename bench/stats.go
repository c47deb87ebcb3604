package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
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

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance check computes a metric's spread from. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile range as a share of the median — the
// run-to-run steadiness figure a metric's bound is held against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (nearest rank) of samples. ok
// is false when fewer than ten samples lie beyond it: the figure would be
// a few outliers' latency, not a percentile, and is not reported.
func percentile(samples []float64, p float64) (value float64, ok bool) {
	n := float64(len(samples))
	// The epsilons keep rounding from dropping the tenth sample beyond
	// p99 of 1000, or landing p/100*n a hair above a whole rank.
	if n*(100-p)/100 < 10-1e-9 {
		return 0, false
	}
	rank := int(math.Ceil(p/100*n - 1e-9))
	return sortedCopy(samples)[rank-1], true
}

// worseBy reports by what share of base the value got worse, given the
// metric's direction ("lower" or "higher" is better). Improvements are
// negative. A zero base has no relative change and reports 0.
func worseBy(better string, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	d := (value - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// regressed is the bound comparator: value is a regression against base
// when it is worse by more than bound (a share of base).
func regressed(better string, bound, base, value float64) bool {
	return worseBy(better, base, value) > bound
}

// finite guards every reported ratio: a metric is a number or it is 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
