package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of vs.
func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(vs []float64) float64 {
	s := sorted(vs)
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

// quartiles returns the first and third quartiles of vs the way Python's
// statistics.quantiles(vs, n=4) computes them (the default "exclusive"
// method), so the spreads this harness prints are the ones an external
// checker using Python sees. A single value is its own quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of vs as a share of its median: the
// run-to-run noise measure the bounds in BENCHMARK.json are judged against.
func spread(vs []float64) float64 {
	med := median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(med)
}

// minBeyond is how many samples must lie beyond a percentile before the
// percentile is reported: fewer, and it is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the p-th percentile (0 < p < 100) of vs by linear
// interpolation between order statistics, and whether at least minBeyond
// samples lie beyond it.
func tailPercentile(vs []float64, p float64) (float64, bool) {
	s := sorted(vs)
	n := len(s)
	if n == 0 {
		return 0, false
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	v := s[lo]
	if lo+1 < n {
		v += (s[lo+1] - s[lo]) * (pos - float64(lo))
	}
	beyond := n - 1 - lo
	return v, beyond >= minBeyond
}
