package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// maxFlow routes as much flow from s to t as the network carries: an
// unbounded MinCostFlow request can never be met in full.
func maxFlow(t *testing.T, f *Network, s, sink int) float64 {
	t.Helper()
	res := f.MinCostFlow(s, sink, math.Inf(1))
	if res.Full {
		t.Fatalf("unbounded request reported full: %+v", res)
	}
	return res.Sent
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example with known max flow 23.
	f := NewNetwork(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	f.AddArc(s, v1, 16, 0)
	f.AddArc(s, v2, 13, 0)
	f.AddArc(v1, v2, 10, 0)
	f.AddArc(v2, v1, 4, 0)
	f.AddArc(v1, v3, 12, 0)
	f.AddArc(v3, v2, 9, 0)
	f.AddArc(v2, v4, 14, 0)
	f.AddArc(v4, v3, 7, 0)
	f.AddArc(v3, tt, 20, 0)
	f.AddArc(v4, tt, 4, 0)
	if got := maxFlow(t, f, s, tt); !almostEq(got, 23, 1e-9) {
		t.Fatalf("max flow = %g, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewNetwork(3)
	f.AddArc(0, 1, 5, 0)
	if got := maxFlow(t, f, 0, 2); got != 0 {
		t.Fatalf("max flow = %g, want 0", got)
	}
}

func TestMaxFlowParallelArcs(t *testing.T) {
	f := NewNetwork(2)
	f.AddArc(0, 1, 3, 0)
	f.AddArc(0, 1, 4, 0)
	if got := maxFlow(t, f, 0, 1); !almostEq(got, 7, 1e-9) {
		t.Fatalf("max flow = %g, want 7", got)
	}
}

func TestMinCostFlowSimple(t *testing.T) {
	// Two routes: direct cost 3 cap 2, detour cost 1+1 cap 2 each.
	f := NewNetwork(3)
	direct := f.AddArc(0, 2, 2, 3)
	a := f.AddArc(0, 1, 2, 1)
	b := f.AddArc(1, 2, 2, 1)
	res := f.MinCostFlow(0, 2, 3)
	if !res.Full || !almostEq(res.Sent, 3, 1e-9) {
		t.Fatalf("sent = %g full=%v, want 3", res.Sent, res.Full)
	}
	// Cheapest: 2 units over the detour (cost 4) + 1 direct (3) = 7.
	if !almostEq(res.Cost, 7, 1e-9) {
		t.Fatalf("cost = %g, want 7", res.Cost)
	}
	if !almostEq(f.Flow(direct), 1, 1e-9) || !almostEq(f.Flow(a), 2, 1e-9) || !almostEq(f.Flow(b), 2, 1e-9) {
		t.Fatalf("arc flows = %g,%g,%g", f.Flow(direct), f.Flow(a), f.Flow(b))
	}
}

func TestMinCostFlowPartial(t *testing.T) {
	f := NewNetwork(2)
	f.AddArc(0, 1, 5, 2)
	res := f.MinCostFlow(0, 1, 8)
	if res.Full {
		t.Fatal("claims full despite capacity 5 < request 8")
	}
	if !almostEq(res.Sent, 5, 1e-9) || !almostEq(res.Cost, 10, 1e-9) {
		t.Fatalf("sent=%g cost=%g, want 5, 10", res.Sent, res.Cost)
	}
}

func TestMinCostFlowZeroAmount(t *testing.T) {
	f := NewNetwork(2)
	f.AddArc(0, 1, 5, 2)
	res := f.MinCostFlow(0, 1, 0)
	if !res.Full || res.Sent != 0 || res.Cost != 0 {
		t.Fatalf("zero request: %+v", res)
	}
}

func TestMinCostFlowInfiniteCapacity(t *testing.T) {
	f := NewNetwork(3)
	f.AddArc(0, 1, math.Inf(1), 1)
	f.AddArc(1, 2, math.Inf(1), 0)
	res := f.MinCostFlow(0, 2, 42)
	if !res.Full || !almostEq(res.Cost, 42, 1e-9) {
		t.Fatalf("inf capacity: %+v", res)
	}
}

func TestMinCostPrefersCheapRoute(t *testing.T) {
	// The expensive route must only be used after the cheap one fills.
	f := NewNetwork(4)
	cheap1 := f.AddArc(0, 1, 1, 0)
	cheap2 := f.AddArc(1, 3, 1, 0)
	exp1 := f.AddArc(0, 2, 10, 5)
	exp2 := f.AddArc(2, 3, 10, 5)
	res := f.MinCostFlow(0, 3, 1)
	if !almostEq(res.Cost, 0, 1e-9) {
		t.Fatalf("cost=%g, want 0 via cheap route", res.Cost)
	}
	if !almostEq(f.Flow(cheap1), 1, 1e-9) || !almostEq(f.Flow(cheap2), 1, 1e-9) ||
		f.Flow(exp1) > 1e-9 || f.Flow(exp2) > 1e-9 {
		t.Fatal("flow did not take the cheap route")
	}
}

func TestNegativeCostArc(t *testing.T) {
	// Bellman–Ford initialization must handle negative costs.
	f := NewNetwork(3)
	f.AddArc(0, 1, 2, -3)
	f.AddArc(1, 2, 2, 1)
	f.AddArc(0, 2, 2, 0)
	res := f.MinCostFlow(0, 2, 2)
	if !res.Full || !almostEq(res.Cost, -4, 1e-9) {
		t.Fatalf("cost=%g full=%v, want -4 (via negative arc)", res.Cost, res.Full)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero nodes":    func() { NewNetwork(0) },
		"bad arc":       func() { NewNetwork(2).AddArc(0, 5, 1, 0) },
		"neg capacity":  func() { NewNetwork(2).AddArc(0, 1, -1, 0) },
		"same st":       func() { NewNetwork(2).MinCostFlow(1, 1, 1) },
		"neg amount":    func() { n := NewNetwork(2); n.AddArc(0, 1, 1, 0); n.MinCostFlow(0, 1, -2) },
		"st out of rng": func() { NewNetwork(2).MinCostFlow(0, 7, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// lpMinCostFlow solves the identical min-cost flow instance as an LP,
// giving an independent reference implementation.
func lpMinCostFlow(n int, arcs [][4]float64, s, t int, amount float64) (cost float64, feasible bool) {
	p := lp.NewProblem(lp.Minimize)
	vars := make([]lp.Var, len(arcs))
	for i, a := range arcs {
		vars[i] = p.AddVariable("f", 0, a[2], a[3])
	}
	// Flow conservation with net supply at s and demand at t.
	for v := 0; v < n; v++ {
		var terms []lp.Term
		for i, a := range arcs {
			if int(a[0]) == v {
				terms = append(terms, lp.Term{Var: vars[i], Coef: 1})
			}
			if int(a[1]) == v {
				terms = append(terms, lp.Term{Var: vars[i], Coef: -1})
			}
		}
		rhs := 0.0
		if v == s {
			rhs = amount
		} else if v == t {
			rhs = -amount
		}
		if len(terms) == 0 && rhs != 0 {
			return 0, false
		}
		if len(terms) > 0 {
			p.AddConstraint(lp.EQ, rhs, terms...)
		}
	}
	sol, err := p.Solve()
	if err != nil || sol.Status != lp.Optimal {
		return 0, false
	}
	return sol.Objective, true
}

// Property: successive-shortest-paths matches the LP on random networks
// with non-negative costs.
func TestMinCostFlowMatchesLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		nArcs := n + rng.Intn(2*n)
		arcs := make([][4]float64, 0, nArcs)
		net := NewNetwork(n)
		for i := 0; i < nArcs; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(1 + rng.Intn(9))
			w := float64(rng.Intn(6))
			arcs = append(arcs, [4]float64{float64(u), float64(v), c, w})
			net.AddArc(u, v, c, w)
		}
		s, tt := 0, n-1
		// Request at most the max-flow so the LP stays feasible.
		probe := NewNetwork(n)
		for _, a := range arcs {
			probe.AddArc(int(a[0]), int(a[1]), a[2], a[3])
		}
		mf := probe.MinCostFlow(s, tt, math.Inf(1)).Sent
		if mf < 1 {
			return true
		}
		amount := math.Floor(mf * (0.3 + 0.7*rng.Float64()))
		if amount < 1 {
			amount = 1
		}
		res := net.MinCostFlow(s, tt, amount)
		want, ok := lpMinCostFlow(n, arcs, s, tt, amount)
		if !ok {
			t.Logf("seed %d: LP reference failed", seed)
			return false
		}
		if !res.Full {
			t.Logf("seed %d: flow not full though amount <= maxflow", seed)
			return false
		}
		if !almostEq(res.Cost, want, 1e-5*(1+math.Abs(want))) {
			t.Logf("seed %d: flow=%g lp=%g", seed, res.Cost, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: an unbounded MinCostFlow request routes the LP max-flow
// value.
func TestMaxFlowMatchesLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		s, tt := 0, n-1
		net := NewNetwork(n)
		p := lp.NewProblem(lp.Maximize)
		type arc struct {
			u, v int
			x    lp.Var
		}
		var arcs []arc
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(1 + rng.Intn(9))
			net.AddArc(u, v, c, 0)
			// Objective = net outflow of s.
			coef := 0.0
			if u == s {
				coef = 1
			}
			if v == s {
				coef = -1
			}
			arcs = append(arcs, arc{u, v, p.AddVariable("f", 0, c, coef)})
		}
		if len(arcs) == 0 {
			return true
		}
		// Conservation at internal nodes.
		for v := 0; v < n; v++ {
			if v == s || v == tt {
				continue
			}
			var terms []lp.Term
			for _, a := range arcs {
				if a.u == v {
					terms = append(terms, lp.Term{Var: a.x, Coef: 1})
				}
				if a.v == v {
					terms = append(terms, lp.Term{Var: a.x, Coef: -1})
				}
			}
			if len(terms) > 0 {
				p.AddConstraint(lp.EQ, 0, terms...)
			}
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.Optimal {
			t.Logf("seed %d: LP failed: %v", seed, err)
			return false
		}
		got := maxFlow(t, net, s, tt)
		if !almostEq(got, sol.Objective, 1e-5*(1+sol.Objective)) {
			t.Logf("seed %d: flow=%g lp=%g", seed, got, sol.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
