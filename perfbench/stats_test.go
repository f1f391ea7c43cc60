package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples should be NaN")
	}
}

func TestTailRule(t *testing.T) {
	// p90 of 100 samples is rank 90: ten samples lie beyond it; of 99
	// samples it is rank 90 with only nine beyond.
	if got := beyond(100, 0.90); got != 10 {
		t.Errorf("beyond(100, .9) = %d, want 10", got)
	}
	if got := beyond(99, 0.90); got != 9 {
		t.Errorf("beyond(99, .9) = %d, want 9", got)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{0.90, 100}, {0.95, 200}, {0.99, 1000}, {0.5, 20}} {
		n := samplesFor(c.p)
		if n != c.want {
			t.Errorf("samplesFor(%g) = %d, want %d", c.p, n, c.want)
		}
		if beyond(n, c.p) < minTail || beyond(n-1, c.p) >= minTail {
			t.Errorf("samplesFor(%g) = %d is not the smallest count with %d beyond", c.p, n, minTail)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples should be NaN")
	}
}
