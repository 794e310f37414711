package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(data, n=4), the
// reference an external checker of the spreads uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{0.9, 1.0, 1.1}, 0.9, 1.1},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.data)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// quartiles 2.75 and 8.25 around a median of 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A percentile is reported only with at least ten samples beyond it, so a
// 99th percentile needs about a thousand samples.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	v, ok := tailPercentile(seq(1000), 99)
	if !ok || !near(v, 990.01) {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990.01, true", v, ok)
	}
	if _, ok := tailPercentile(seq(999), 99); !ok {
		t.Error("p99 of 999 samples has 10 beyond it")
	}
	if _, ok := tailPercentile(seq(900), 99); ok {
		t.Error("p99 of 900 samples has only 9 beyond it")
	}
	if v, ok := tailPercentile(seq(21), 50); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11, true", v, ok)
	}
	if _, ok := tailPercentile(nil, 50); ok {
		t.Error("no samples, no percentile")
	}
}
