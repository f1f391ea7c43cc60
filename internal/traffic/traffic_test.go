package traffic

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topology"
)

func paperPOP(seed int64) *topology.POP {
	cfg := topology.Paper10
	cfg.Seed = seed
	return topology.Generate(cfg)
}

func TestDemandsCountMatchesPaper(t *testing.T) {
	pop := paperPOP(1)
	d := Demands(pop, Config{Seed: 1})
	// 12 endpoints → 132 ordered pairs, the Fig 7 traffic count.
	if len(d) != 132 {
		t.Fatalf("demands = %d, want 132", len(d))
	}
	for i, dd := range d {
		if dd.Src == dd.Dst {
			t.Fatalf("demand %d is a self-pair", i)
		}
		if dd.Volume <= 0 {
			t.Fatalf("demand %d has volume %g", i, dd.Volume)
		}
	}
}

func TestDemandsNonUniform(t *testing.T) {
	pop := paperPOP(2)
	d := Demands(pop, Config{Seed: 2})
	var max, sum float64
	for _, dd := range d {
		if dd.Volume > max {
			max = dd.Volume
		}
		sum += dd.Volume
	}
	mean := sum / float64(len(d))
	// Preferred pairs make the max volume stand far above the mean.
	if max < 4*mean {
		t.Fatalf("max %g < 4×mean %g; hot pairs missing", max, mean)
	}
}

func TestDemandsDeterministic(t *testing.T) {
	pop := paperPOP(3)
	a := Demands(pop, Config{Seed: 9})
	b := Demands(pop, Config{Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("demand %d differs between runs", i)
		}
	}
}

func TestRouteBuildsValidInstance(t *testing.T) {
	pop := paperPOP(4)
	in, err := Route(pop, Demands(pop, Config{Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Traffics) != 132 {
		t.Fatalf("traffics = %d, want 132", len(in.Traffics))
	}
	// Every routed path must start and end at virtual endpoints and be
	// at least 2 links long (endpoint → router → … → endpoint).
	for i, tr := range in.Traffics {
		if pop.IsRouter(tr.Path.Src()) || pop.IsRouter(tr.Path.Dst()) {
			t.Fatalf("traffic %d terminates on a router", i)
		}
		if tr.Path.Len() < 2 {
			t.Fatalf("traffic %d path length %d < 2", i, tr.Path.Len())
		}
	}
}

func TestRouteMultiSplitsVolume(t *testing.T) {
	pop := paperPOP(5)
	demands := Demands(pop, Config{Seed: 5})
	mi, err := RouteMulti(pop, demands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mi.Validate(); err != nil {
		t.Fatal(err)
	}
	// Total volume must be preserved by the split.
	want := 0.0
	for _, d := range demands {
		want += d.Volume
	}
	if got := mi.TotalVolume(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("total volume %g, want %g", got, want)
	}
	// At least one traffic should actually be multi-routed.
	multi := false
	for _, tr := range mi.Traffics {
		if len(tr.Routes) > 1 {
			multi = true
			if len(tr.Routes) > 3 {
				t.Fatalf("traffic has %d routes > maxRoutes 3", len(tr.Routes))
			}
			// Shorter routes must carry at least as much volume.
			for i := 1; i < len(tr.Routes); i++ {
				if tr.Routes[i-1].Path.Cost <= tr.Routes[i].Path.Cost &&
					tr.Routes[i-1].Volume < tr.Routes[i].Volume-1e-9 {
					t.Fatal("inverse-cost split violated")
				}
			}
		}
	}
	if !multi {
		t.Fatal("no traffic was split over several routes")
	}
}

func TestRouteMultiRejectsBadK(t *testing.T) {
	pop := paperPOP(6)
	if _, err := RouteMulti(pop, Demands(pop, Config{Seed: 6}), 0); err == nil {
		t.Fatal("want error for maxRoutes=0")
	}
}

// A demand no route can carry, its source being its destination or an
// endpoint lying outside the graph, is an error naming the demand from
// both routers: the single router would otherwise build a zero-link
// traffic, the multi router a route of volume NaN. So is a volume that
// is not a positive finite number, which every solver would refuse.
func TestRoutersRejectUnroutableDemand(t *testing.T) {
	pop := paperPOP(7)
	demands := Demands(pop, Config{Seed: 7})[:5]
	src, dst := demands[0].Src, demands[0].Dst
	for _, bad := range []Demand{
		{Src: src, Dst: src, Volume: 3},
		{Src: -1, Dst: dst, Volume: 3},
		{Src: src, Dst: graph.NodeID(pop.G.NumNodes()), Volume: 3},
		{Src: src, Dst: dst, Volume: 0},
		{Src: src, Dst: dst, Volume: -2},
		{Src: src, Dst: dst, Volume: math.NaN()},
		{Src: src, Dst: dst, Volume: math.Inf(1)},
	} {
		ds := append(append([]Demand(nil), demands...), bad)
		if in, err := Route(pop, ds); err == nil || !strings.Contains(err.Error(), "demand 5") {
			t.Errorf("%+v: Route = %v, %v; want an error naming demand 5", bad, in, err)
		}
		if mi, err := RouteMulti(pop, ds, 2); err == nil || !strings.Contains(err.Error(), "demand 5") {
			t.Errorf("%+v: RouteMulti = %v, %v; want an error naming demand 5", bad, mi, err)
		}
	}
}

func TestScale(t *testing.T) {
	d := []Demand{{Volume: 2}, {Volume: 3}}
	s := Scale(d, 1.5)
	if s[0].Volume != 3 || s[1].Volume != 4.5 {
		t.Fatalf("scaled = %+v", s)
	}
	if d[0].Volume != 2 {
		t.Fatal("Scale mutated its input")
	}
}

func TestPerturbBoundedAndDeterministic(t *testing.T) {
	d := make([]Demand, 50)
	for i := range d {
		d[i].Volume = 10
	}
	a := Perturb(d, 0.3, 7)
	b := Perturb(d, 0.3, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perturb not deterministic")
		}
		if a[i].Volume < 10*0.69 || a[i].Volume > 10*1.31 {
			t.Fatalf("perturbed volume %g outside ±30%%", a[i].Volume)
		}
	}
}

// Property: routing any generated demand set over any seeded POP yields
// a valid instance whose volume equals the demand volume.
func TestRouteProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := topology.Config{
			Routers:          4 + int(uint64(seed)%12),
			InterRouterLinks: 8 + int(uint64(seed/3)%20),
			Endpoints:        3 + int(uint64(seed/11)%10),
			Seed:             seed,
		}
		pop := topology.Generate(cfg)
		demands := Demands(pop, Config{Seed: seed})
		in, err := Route(pop, demands)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := in.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := 0.0
		for _, d := range demands {
			want += d.Volume
		}
		return math.Abs(in.TotalVolume()-want) <= 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
