package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to count as measured rather than as the run's single worst case.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// value at 1-based rank ⌈p·n⌉ of the sorted samples. xs is not
// modified. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank ⌈p·n⌉, clamped to [1, n].
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples ranked strictly after the p-quantile
// of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// samplesFor is the smallest sample count whose p-quantile has at least
// minTail samples beyond it.
func samplesFor(p float64) int {
	n := minTail + 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
