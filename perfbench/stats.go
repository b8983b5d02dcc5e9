package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does (its
// default "exclusive" method, which extrapolates beyond the data for very
// small samples), so the spreads this program prints match the ones a
// Python reader computes over its outputs. Fewer than two samples have no
// quartiles; the single value (or NaN) is returned for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// minBeyond is the number of samples that must lie beyond a reported tail:
// fewer and the tail is one or two unlucky samples, not a property of the
// distribution.
const minBeyond = 10

// tail returns the highest percentile of xs that has at least minBeyond
// samples beyond it — the (minBeyond+1)-th largest sample — and the
// percentile it sits at, 100·(n−minBeyond)/n. The percentile grows smoothly
// with the sample count instead of jumping between fixed steps, so runs
// that collect a few more or fewer samples report comparable tails. ok is
// false when there are not more than minBeyond samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return 100 * float64(n-minBeyond) / float64(n), s[n-minBeyond-1], true
}
