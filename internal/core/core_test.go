package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
)

// buildLine returns a 4-node line graph and a helper to make paths.
func buildLine(t *testing.T) (*graph.Graph, func(from, to graph.NodeID) graph.Path) {
	t.Helper()
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 100)
	}
	return g, func(from, to graph.NodeID) graph.Path {
		p, ok := g.ShortestPath(from, to)
		if !ok {
			t.Fatalf("no path %d->%d", from, to)
		}
		return p
	}
}

func TestInstanceAggregates(t *testing.T) {
	g, sp := buildLine(t)
	in := &Instance{G: g, Traffics: []Traffic{
		{ID: 0, Path: sp(0, 3), Volume: 2}, // edges 0,1,2
		{ID: 1, Path: sp(1, 2), Volume: 5}, // edge 1
	}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.TotalVolume() != 7 {
		t.Fatalf("total = %g, want 7", in.TotalVolume())
	}
	loads := in.EdgeLoads()
	want := []float64{2, 7, 2}
	for e, w := range want {
		if loads[e] != w {
			t.Fatalf("load[%d] = %g, want %g", e, loads[e], w)
		}
	}
	onEdge := in.TrafficsOnEdge()
	if len(onEdge[1]) != 2 || len(onEdge[0]) != 1 || onEdge[0][0] != 0 {
		t.Fatalf("traffics on edge = %v", onEdge)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	g, sp := buildLine(t)
	cases := []*Instance{
		{G: nil},
		{G: g, Traffics: []Traffic{{Path: sp(0, 1), Volume: 0}}},
		{G: g, Traffics: []Traffic{{Path: sp(0, 1), Volume: math.NaN()}}},
		{G: g, Traffics: []Traffic{{Path: graph.Path{}, Volume: 1}}},
		{G: g, Traffics: []Traffic{{Path: sp(2, 2), Volume: 1}}}, // crosses no link
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestMultiTrafficVolume(t *testing.T) {
	g, sp := buildLine(t)
	mt := MultiTraffic{Src: 0, Dst: 3, Routes: []Route{
		{Path: sp(0, 3), Volume: 3},
		{Path: sp(0, 3), Volume: 2},
	}}
	if mt.Volume() != 5 {
		t.Fatalf("volume = %g, want 5", mt.Volume())
	}
	_ = g
}

func TestMultiInstanceValidate(t *testing.T) {
	g, sp := buildLine(t)
	good := &MultiInstance{G: g, Traffics: []MultiTraffic{
		{Src: 0, Dst: 3, Routes: []Route{{Path: sp(0, 3), Volume: 1}}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*MultiInstance{
		{G: nil},
		{G: g, Traffics: []MultiTraffic{{Src: 0, Dst: 3}}},                                                // no routes
		{G: g, Traffics: []MultiTraffic{{Src: 0, Dst: 3, Routes: []Route{{Path: sp(0, 3), Volume: -1}}}}}, // bad volume
		{G: g, Traffics: []MultiTraffic{{Src: 0, Dst: 2, Routes: []Route{{Path: sp(0, 3), Volume: 1}}}}},  // endpoint mismatch
		{G: g, Traffics: []MultiTraffic{{Src: 2, Dst: 2, Routes: []Route{{Path: sp(2, 2), Volume: 1}}}}},  // crosses no link
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSingleConversion(t *testing.T) {
	g, sp := buildLine(t)
	in := &Instance{G: g, Traffics: []Traffic{
		{ID: 7, Path: sp(0, 3), Volume: 4},
	}}
	mi := in.Single()
	if err := mi.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mi.Traffics) != 1 || mi.Traffics[0].ID != 7 || mi.TotalVolume() != 4 {
		t.Fatalf("conversion wrong: %+v", mi.Traffics)
	}
	flat := mi.Paths()
	if len(flat) != 1 || flat[0].Traffic != 0 || flat[0].Volume != 4 {
		t.Fatalf("flat paths wrong: %+v", flat)
	}
}

// TestSolveStatsAddSumsEveryCounter gives every counter of SolveStats
// a distinct value and checks that Add sums each one and leaves Wall
// and Bound alone, so a counter added to the type cannot be missed in
// Add.
func TestSolveStatsAddSumsEveryCounter(t *testing.T) {
	a := SolveStats{Wall: time.Second, Bound: 3.5}
	b := SolveStats{Wall: time.Minute, Bound: 7.25}
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	counters := 0
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if f.Name == "Wall" || f.Name == "Bound" {
			continue
		}
		if f.Type.Kind() != reflect.Int {
			t.Fatalf("field %s is %s; Add and this test expect int counters", f.Name, f.Type)
		}
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(1000 * (i + 1)))
		counters++
	}
	if counters == 0 {
		t.Fatal("no counters found")
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if f.Type.Kind() != reflect.Int {
			continue
		}
		if got, want := va.Field(i).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("after Add, %s = %d, want %d", f.Name, got, want)
		}
	}
	if a.Wall != time.Second || a.Bound != 3.5 {
		t.Errorf("Add changed Wall or Bound: %v, %g", a.Wall, a.Bound)
	}
}
