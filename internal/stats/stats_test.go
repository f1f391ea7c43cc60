package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %g, want 5", Mean(xs))
	}
	// Sample std of this classic set is ≈2.138.
	if math.Abs(StdDev(xs)-2.138) > 0.01 {
		t.Fatalf("std = %g", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/singleton cases wrong")
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	want := 1.96 * StdDev(xs) / math.Sqrt(5)
	if math.Abs(CI95(xs)-want) > 1e-12 {
		t.Fatalf("ci = %g, want %g", CI95(xs), want)
	}
	if CI95([]float64{3}) != 0 {
		t.Fatal("singleton CI must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %g/%g", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty extrema wrong")
	}
}

func TestSeriesAddAndMeanAt(t *testing.T) {
	s := NewSeries("fig", "x", "y", "greedy", "ilp")
	s.Add(75, "greedy", 4)
	s.Add(75, "greedy", 6)
	s.Add(75, "ilp", 3)
	s.Add(80, "ilp", 4)
	if got := s.MeanAt(75, "greedy"); got != 5 {
		t.Fatalf("mean = %g, want 5", got)
	}
	if got := s.MeanAt(75, "ilp"); got != 3 {
		t.Fatalf("mean = %g, want 3", got)
	}
	if !math.IsNaN(s.MeanAt(99, "ilp")) || !math.IsNaN(s.MeanAt(80, "greedy")) {
		t.Fatal("absent points must be NaN")
	}
	xs := s.Xs()
	if len(xs) != 2 || xs[0] != 75 || xs[1] != 80 {
		t.Fatalf("xs = %v", xs)
	}
}

func TestSeriesUnknownColumnPanics(t *testing.T) {
	s := NewSeries("fig", "x", "y", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown column accepted")
		}
	}()
	s.Add(1, "b", 2)
}

func TestSeriesWrite(t *testing.T) {
	s := NewSeries("Figure 7", "% monitored", "devices", "greedy", "ilp")
	s.Add(90, "greedy", 10)
	s.Add(90, "greedy", 12)
	s.Add(90, "ilp", 6)
	s.Add(75, "ilp", 4)
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 7", "greedy", "ilp", "11.00", "75", "90"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Rows must be sorted by x: 75 before 90.
	if strings.Index(out, "75") > strings.Index(out, "90") {
		t.Errorf("rows not sorted:\n%s", out)
	}
	// Missing cells render as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing cell not rendered:\n%s", out)
	}
}

// Property: Mean is within [Min, Max] and StdDev is non-negative.
func TestSummaryProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip pathological magnitudes where the sum itself
			// overflows; the harness only ever aggregates device counts
			// and fractions.
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true
			}
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9 && StdDev(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
