package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle value (mean of the middle two for an even count);
// NaN for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) — the
// estimator the benchmark driver computes its spreads with, so -selfcheck
// reports the very number the driver will. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		// As Python: clamp the index first, then take the remainder, so the
		// outer cuts of a tiny sample extrapolate.
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// tailPercent is the highest whole percentile that still has at least
// ten of n samples beyond it (choosing-metrics §1); 0 when n is too small
// to support any tail at all.
func tailPercent(n int) int {
	if n < 20 {
		return 0
	}
	p := 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	return p
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailOf is the tail of a sample of timings: the percentile tailPercent
// allows and the value there; 0 and 0 when the sample supports no tail.
func tailOf(xs []float64) (pct int, value float64) {
	if pct = tailPercent(len(xs)); pct == 0 {
		return 0, 0
	}
	return pct, percentile(xs, pct)
}
