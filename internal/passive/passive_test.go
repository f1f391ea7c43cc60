package passive

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// figure3Instance reproduces the POP of the paper's Figure 3: four
// traffics, two of weight 2 and two of weight 1, where the greedy picks
// the load-4 link first and needs 3 devices while the optimum is 2
// (the two load-3 links).
func figure3Instance(t *testing.T) *core.Instance {
	t.Helper()
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	f := g.AddNode("f")
	h := g.AddNode("h")

	l1 := g.AddEdge(a, b, 100) // carries t0,t1: load 4 — the greedy trap
	l2 := g.AddEdge(b, c, 100) // carries t0,t2: load 3
	l3 := g.AddEdge(b, d, 100) // carries t1,t3: load 3
	l4 := g.AddEdge(c, f, 100) // carries t2: load 1
	l5 := g.AddEdge(d, h, 100) // carries t3: load 1

	mk := func(nodes []graph.NodeID, edges []graph.EdgeID) graph.Path {
		p := graph.Path{Nodes: nodes, Edges: edges, Cost: float64(len(edges))}
		if err := p.Validate(g); err != nil {
			t.Fatal(err)
		}
		return p
	}
	in := &core.Instance{G: g, Traffics: []core.Traffic{
		{ID: 0, Path: mk([]graph.NodeID{a, b, c}, []graph.EdgeID{l1, l2}), Volume: 2},
		{ID: 1, Path: mk([]graph.NodeID{a, b, d}, []graph.EdgeID{l1, l3}), Volume: 2},
		{ID: 2, Path: mk([]graph.NodeID{f, c, b}, []graph.EdgeID{l4, l2}), Volume: 1},
		{ID: 3, Path: mk([]graph.NodeID{h, d, b}, []graph.EdgeID{l5, l3}), Volume: 1},
	}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFigure3GreedyTrap(t *testing.T) {
	in := figure3Instance(t)
	// Loads: eC0A=4, eAB=3, eBC1=3, eC2A=1, eBC3=1.
	loads := in.EdgeLoads()
	want := []float64{4, 3, 3, 1, 1}
	for e, w := range want {
		if loads[e] != w {
			t.Fatalf("load[%d]=%g, want %g", e, loads[e], w)
		}
	}
	g := GreedyLoad(in, 1)
	if g.Devices() != 3 {
		t.Fatalf("greedy-load devices = %d, want 3 (the paper's trap)", g.Devices())
	}
	opt, err := SolveILP(context.Background(), in, 1, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Devices() != 2 {
		t.Fatalf("ILP devices = %d, want 2 (edges eAB, eBC1)", opt.Devices())
	}
	if opt.Fraction < 1-1e-9 {
		t.Fatalf("ILP coverage %g < 1", opt.Fraction)
	}
	ex := ExactCover(context.Background(), in, 1, cover.ExactOptions{})
	if ex.Devices() != 2 || !ex.Exact {
		t.Fatalf("exact-cover devices = %d exact=%v, want 2", ex.Devices(), ex.Exact)
	}
}

func TestCoverage(t *testing.T) {
	in := figure3Instance(t)
	vol, frac := Coverage(in, []graph.EdgeID{0})
	if vol != 4 || math.Abs(frac-4.0/6) > 1e-12 {
		t.Fatalf("coverage of heavy link = %g (%g), want 4 (2/3)", vol, frac)
	}
	vol, _ = Coverage(in, nil)
	if vol != 0 {
		t.Fatalf("empty placement covers %g", vol)
	}
	vol, frac = Coverage(in, []graph.EdgeID{1, 2})
	if vol != 6 || frac != 1 {
		t.Fatalf("optimal pair covers %g (%g)", vol, frac)
	}
}

func TestBadKPanics(t *testing.T) {
	in := figure3Instance(t)
	for _, k := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%g: want panic", k)
				}
			}()
			GreedyLoad(in, k)
		}()
	}
}

func smallInstance(seed int64) *core.Instance {
	cfg := topology.Config{Routers: 5, InterRouterLinks: 8, Endpoints: 5, Seed: seed}
	pop := topology.Generate(cfg)
	demands := traffic.Demands(pop, traffic.Config{Seed: seed})
	in, err := traffic.Route(pop, demands)
	if err != nil {
		panic(err)
	}
	return in
}

// Property: on random small instances, for several k, the two exact
// methods agree, both formulations agree, and every heuristic is
// feasible and no better than the optimum.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := smallInstance(seed)
		for _, k := range []float64{0.75, 0.9, 1.0} {
			opt2, err := SolveILP(context.Background(), in, k, ILPOptions{Formulation: LP2})
			if err != nil {
				t.Logf("seed %d k=%g: LP2: %v", seed, k, err)
				return false
			}
			opt1, err := SolveILP(context.Background(), in, k, ILPOptions{Formulation: LP1})
			if err != nil {
				t.Logf("seed %d k=%g: LP1: %v", seed, k, err)
				return false
			}
			ex := ExactCover(context.Background(), in, k, cover.ExactOptions{})
			if opt1.Devices() != opt2.Devices() || ex.Devices() != opt2.Devices() {
				t.Logf("seed %d k=%g: LP1=%d LP2=%d cover=%d", seed, k, opt1.Devices(), opt2.Devices(), ex.Devices())
				return false
			}
			for _, h := range []Placement{GreedyLoad(in, k), GreedyGain(in, k), FlowHeuristic(in, k)} {
				if h.Fraction < k-1e-9 {
					t.Logf("seed %d k=%g: %s infeasible: %g < %g", seed, k, h.Method, h.Fraction, k)
					return false
				}
				if h.Devices() < opt2.Devices() {
					t.Logf("seed %d k=%g: %s beats the optimum (%d < %d)", seed, k, h.Method, h.Devices(), opt2.Devices())
					return false
				}
			}
			if opt2.Fraction < k-1e-9 {
				t.Logf("seed %d k=%g: ILP coverage %g < k", seed, k, opt2.Fraction)
				return false
			}
		}
		return true
	}
	// This seed's k = 1 instance has an optimal cover whose last link
	// falls short of the remaining volume by float drift alone; the
	// cover search once pruned it and proved 5 devices where 4 suffice.
	if !f(4878955098895162135) {
		t.Fatal("seed 4878955098895162135 failed")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalPlacement(t *testing.T) {
	in := smallInstance(77)
	base, err := SolveILP(context.Background(), in, 0.9, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Force a poor first device and re-optimize around it.
	loads := in.EdgeLoads()
	worst := graph.EdgeID(0)
	for e := range loads {
		if loads[e] < loads[worst] {
			worst = graph.EdgeID(e)
		}
	}
	inc, err := SolveILP(context.Background(), in, 0.9, ILPOptions{Installed: []graph.EdgeID{worst}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range inc.Edges {
		if e == worst {
			found = true
		}
	}
	if !found {
		t.Fatal("installed edge missing from incremental solution")
	}
	if inc.Devices() < base.Devices() {
		t.Fatalf("incremental %d beats unconstrained optimum %d", inc.Devices(), base.Devices())
	}
	if inc.Fraction < 0.9-1e-9 {
		t.Fatalf("incremental coverage %g < 0.9", inc.Fraction)
	}
}

func TestBudgetVariant(t *testing.T) {
	in := smallInstance(78)
	opt, err := SolveILP(context.Background(), in, 0.9, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget exactly at the optimum: feasible, same count.
	b, err := SolveILP(context.Background(), in, 0.9, ILPOptions{Budget: opt.Devices()})
	if err != nil {
		t.Fatal(err)
	}
	if b.Devices() != opt.Devices() {
		t.Fatalf("budgeted devices %d != optimum %d", b.Devices(), opt.Devices())
	}
	// One below the optimum: must be infeasible.
	if opt.Devices() > 1 {
		if _, err := SolveILP(context.Background(), in, 0.9, ILPOptions{Budget: opt.Devices() - 1}); err == nil {
			t.Fatal("budget below optimum should be infeasible")
		}
	}
}

func TestMaxCoverage(t *testing.T) {
	in := smallInstance(79)
	prev := -1.0
	for _, budget := range []int{0, 1, 2, 4} {
		pl, err := MaxCoverage(context.Background(), in, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Devices() > budget {
			t.Fatalf("budget %d: used %d devices", budget, pl.Devices())
		}
		if pl.Covered < prev-1e-9 {
			t.Fatalf("coverage decreased with a larger budget: %g < %g", pl.Covered, prev)
		}
		prev = pl.Covered
	}
	if _, err := MaxCoverage(context.Background(), in, -1, nil); err == nil {
		t.Fatal("negative budget accepted")
	}
	// The expected-gain question of §4.3: marginal gain of one more
	// device on top of an installed base must be non-negative.
	first, err := MaxCoverage(context.Background(), in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MaxCoverage(context.Background(), in, 1, first.Edges)
	if err != nil {
		t.Fatal(err)
	}
	if second.Covered < first.Covered-1e-9 {
		t.Fatal("adding a device lowered coverage")
	}
}

func TestMaxCoverageFullBudget(t *testing.T) {
	in := smallInstance(80)
	pl, err := MaxCoverage(context.Background(), in, in.G.NumEdges(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Fraction < 1-1e-9 {
		t.Fatalf("full budget coverage %g < 1", pl.Fraction)
	}
}

func TestGreedyGainNeverWorseThanLoad(t *testing.T) {
	// Not a theorem, but holds on Figure 3 and most instances; verify at
	// least that both are feasible and gain ≤ load on the Fig 3 trap.
	in := figure3Instance(t)
	gl := GreedyLoad(in, 1)
	gg := GreedyGain(in, 1)
	if gg.Devices() > gl.Devices() {
		t.Fatalf("greedy-gain %d > greedy-load %d on Fig 3", gg.Devices(), gl.Devices())
	}
}

func TestPlacementSortedEdges(t *testing.T) {
	in := smallInstance(81)
	pl := GreedyGain(in, 1)
	for i := 1; i < len(pl.Edges); i++ {
		if pl.Edges[i-1] >= pl.Edges[i] {
			t.Fatal("placement edges not sorted")
		}
	}
}

func TestRandomizedRoundingFeasible(t *testing.T) {
	in := smallInstance(91)
	for _, k := range []float64{0.8, 0.95, 1.0} {
		pl, err := RandomizedRounding(context.Background(), in, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Fraction < k-1e-9 {
			t.Fatalf("k=%g: coverage %g infeasible", k, pl.Fraction)
		}
		opt := ExactCover(context.Background(), in, k, cover.ExactOptions{})
		if pl.Devices() < opt.Devices() {
			t.Fatalf("k=%g: rounding %d beat the optimum %d", k, pl.Devices(), opt.Devices())
		}
	}
}

func TestRandomizedRoundingWithinLogFactor(t *testing.T) {
	// Property over seeds: the rounded solution stays within the
	// covering-LP guarantee (generous constant) of the optimum.
	in := smallInstance(92)
	opt := ExactCover(context.Background(), in, 0.9, cover.ExactOptions{})
	bound := float64(opt.Devices())*math.Log(float64(len(in.Traffics))+2)*2 + 2
	for seed := int64(0); seed < 8; seed++ {
		pl, err := RandomizedRounding(context.Background(), in, 0.9, seed)
		if err != nil {
			t.Fatal(err)
		}
		if float64(pl.Devices()) > bound {
			t.Fatalf("seed %d: rounding %d exceeds bound %g (opt %d)", seed, pl.Devices(), bound, opt.Devices())
		}
	}
}
