// Package stats provides the small experiment harness used by the
// figure-reproduction benchmarks: multi-seed runs (the paper averages
// every point over 20 simulations), summary statistics and plain-text
// series tables mirroring the paper's plots.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than two
// points).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Min and Max return the extrema (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Series is one experiment sweep: for every x value (e.g. the monitored
// percentage of Figures 7–8, or |V_B| of Figures 9–11), a named set of
// per-seed samples per algorithm. Samples are kept in the order they
// are added, and every summary statistic is computed in that order, so
// a series built in the same order renders bit-identical tables.
type Series struct {
	// Title and XLabel/YLabel describe the figure being reproduced.
	Title, XLabel, YLabel string
	// Columns are algorithm names, in display order.
	Columns []string
	points  []seriesPoint
}

type seriesPoint struct {
	x       float64
	samples map[string][]float64
}

// Sample is one observation of one column at one x position, the unit
// the engine's scenario cells return.
type Sample struct {
	X      float64
	Column string
	Value  float64
}

// NewSeries creates an empty series with the given algorithm columns.
func NewSeries(title, xlabel, ylabel string, columns ...string) *Series {
	return &Series{Title: title, XLabel: xlabel, YLabel: ylabel, Columns: columns}
}

// Add records one sample of one algorithm at an x position, after every
// sample already in the series.
func (s *Series) Add(x float64, column string, value float64) {
	known := false
	for _, c := range s.Columns {
		if c == column {
			known = true
			break
		}
	}
	if !known {
		panic(fmt.Sprintf("stats: unknown column %q", column))
	}
	for i := range s.points {
		if s.points[i].x == x {
			s.points[i].samples[column] = append(s.points[i].samples[column], value)
			return
		}
	}
	s.points = append(s.points, seriesPoint{
		x:       x,
		samples: map[string][]float64{column: {value}},
	})
}

// AddSamples records a batch of samples in order.
func (s *Series) AddSamples(samples ...Sample) {
	for _, sm := range samples {
		s.Add(sm.X, sm.Column, sm.Value)
	}
}

// MeanAt returns the mean of a column at x (NaN when absent) — used by
// tests.
func (s *Series) MeanAt(x float64, column string) float64 {
	for _, p := range s.points {
		if p.x == x {
			if xs := p.samples[column]; len(xs) > 0 {
				return Mean(xs)
			}
		}
	}
	return math.NaN()
}

// Xs returns the sorted x positions.
func (s *Series) Xs() []float64 {
	xs := make([]float64, len(s.points))
	for i, p := range s.points {
		xs[i] = p.x
	}
	sort.Float64s(xs)
	return xs
}

// Write renders the series as an aligned text table: one row per x, one
// mean±std pair per algorithm — the textual equivalent of the paper's
// plots.
func (s *Series) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Title)
	fmt.Fprintf(&b, "# y: %s, averaged over per-point samples (mean ± std)\n", s.YLabel)
	fmt.Fprintf(&b, "%-12s", s.XLabel)
	for _, c := range s.Columns {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteByte('\n')
	pts := append([]seriesPoint(nil), s.points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12g", p.x)
		for _, c := range s.Columns {
			xs := p.samples[c]
			if len(xs) == 0 {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			fmt.Fprintf(&b, " %11.2f ± %4.2f", Mean(xs), StdDev(xs))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
