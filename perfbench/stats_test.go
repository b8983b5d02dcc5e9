package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are statistics.quantiles(xs, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{110, 20, 30, 40, 50, 60, 70, 80, 90, 100, 10}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{11, 100.0 / 11, 1},
		{20, 50, 10},
		{40, 75, 30},
		{100, 90, 90},
		{1000, 99, 990},
	} {
		xs := seq(tc.n)
		pct, v, ok := tail(xs)
		if !ok || math.Abs(pct-tc.pct) > 1e-9 || v != tc.want {
			t.Errorf("tail of %d samples = p%v %v (ok=%v), want p%v %v", tc.n, pct, v, ok, tc.pct, tc.want)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("tail of %d samples has %d samples beyond it, want %d", tc.n, beyond, minBeyond)
		}
	}
	if _, _, ok := tail(seq(minBeyond)); ok {
		t.Errorf("tail of %d samples reported, but none can have %d beyond it", minBeyond, minBeyond)
	}
}
