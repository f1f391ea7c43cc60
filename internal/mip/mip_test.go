package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func tm(v lp.Var, c float64) lp.Term { return lp.Term{Var: v, Coef: c} }

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func solveOrDie(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestPureLPPassThrough(t *testing.T) {
	// No integer variables: behaves exactly like the LP.
	p := NewProblem(lp.Maximize)
	x := p.AddVariable("x", 0, 4, 3)
	y := p.AddVariable("y", 0, 6, 5)
	p.AddConstraint(lp.LE, 18, tm(x, 3), tm(y, 2))
	s := solveOrDie(t, p)
	if s.Status != lp.Optimal || !almostEq(s.Objective, 36, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 36", s.Status, s.Objective)
	}
}

func TestBinaryKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 5 → b + c? (4+2=6 > 5);
	// a+c: 3+2=5 → 17; b alone 13; a alone 10; c alone 7. Optimal 17.
	p := NewProblem(lp.Maximize)
	a := p.AddBinaryVariable("a", 10)
	b := p.AddBinaryVariable("b", 13)
	c := p.AddBinaryVariable("c", 7)
	p.AddConstraint(lp.LE, 5, tm(a, 3), tm(b, 4), tm(c, 2))
	s := solveOrDie(t, p)
	if s.Status != lp.Optimal || !almostEq(s.Objective, 17, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 17", s.Status, s.Objective)
	}
	if !almostEq(s.Value(a), 1, 1e-9) || !almostEq(s.Value(b), 0, 1e-9) || !almostEq(s.Value(c), 1, 1e-9) {
		t.Fatalf("solution = %v, want a=c=1", s.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer → x = 3 (LP gives 3.5).
	p := NewProblem(lp.Maximize)
	x := p.AddIntegerVariable("x", 0, 100, 1)
	p.AddConstraint(lp.LE, 7, tm(x, 2))
	s := solveOrDie(t, p)
	if !almostEq(s.Objective, 3, 1e-9) {
		t.Fatalf("obj=%g, want 3", s.Objective)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	p := NewProblem(lp.Minimize)
	x := p.AddBinaryVariable("x", 1)
	y := p.AddBinaryVariable("y", 1)
	// x + y >= 3 cannot hold with binaries.
	p.AddConstraint(lp.GE, 3, tm(x, 1), tm(y, 1))
	s := solveOrDie(t, p)
	if s.Status != lp.Infeasible {
		t.Fatalf("status=%v, want infeasible", s.Status)
	}
}

func triangleCover() *Problem {
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	b := p.AddBinaryVariable("b", 1)
	c := p.AddBinaryVariable("c", 1)
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(b, 1))
	p.AddConstraint(lp.GE, 1, tm(b, 1), tm(c, 1))
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(c, 1))
	return p
}

func TestIntegralityGapInstance(t *testing.T) {
	// Vertex cover on a triangle: LP relaxation gives 1.5 (all halves),
	// the ILP must pay 2 — exercises real branching on the plain tree.
	s := plainTree(t, triangleCover())
	if s.Status != lp.Optimal || !almostEq(s.Objective, 2, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 2", s.Status, s.Objective)
	}
	if s.Nodes < 2 {
		t.Fatalf("nodes=%d; triangle cover should require branching on the plain tree", s.Nodes)
	}
}

func TestCliqueCutClosesTriangleAtRoot(t *testing.T) {
	// The strengthened default separates the triangle clique cut
	// y_a + y_b + y_c >= 2 at the root and never branches at all.
	s := solveOrDie(t, triangleCover())
	if s.Status != lp.Optimal || !almostEq(s.Objective, 2, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 2", s.Status, s.Objective)
	}
	if s.CutsAdded == 0 {
		t.Fatalf("no cuts separated on the triangle: %+v", s)
	}
	if s.Nodes != 1 {
		t.Fatalf("nodes=%d; the clique cut should close the root", s.Nodes)
	}
}

func TestFixVariable(t *testing.T) {
	// Incremental placement: fixing a variable to 1 keeps it in every
	// solution, as for already-installed monitors (§4.3).
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	b := p.AddBinaryVariable("b", 1)
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(b, 1))
	p.FixVariable(a, 1)
	s := solveOrDie(t, p)
	if !almostEq(s.Value(a), 1, 1e-9) || !almostEq(s.Objective, 1, 1e-6) {
		t.Fatalf("a=%g obj=%g, want 1,1", s.Value(a), s.Objective)
	}
}

func TestSolveIsRepeatable(t *testing.T) {
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	b := p.AddBinaryVariable("b", 2)
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(b, 1))
	s1 := solveOrDie(t, p)
	s2 := solveOrDie(t, p) // the 1st solve must leave p untouched
	if s1.Objective != s2.Objective || s1.Status != s2.Status {
		t.Fatalf("resolve differs: %+v vs %+v", s1, s2)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 2x + y, x binary, y continuous; x + y >= 1.5 → x=1,y=0.5? obj
	// 2.5; or x=0,y=1.5 → 1.5. Optimal 1.5.
	p := NewProblem(lp.Minimize)
	x := p.AddBinaryVariable("x", 2)
	y := p.AddVariable("y", 0, lp.Inf, 1)
	p.AddConstraint(lp.GE, 1.5, tm(x, 1), tm(y, 1))
	s := solveOrDie(t, p)
	if !almostEq(s.Objective, 1.5, 1e-6) || !almostEq(s.Value(x), 0, 1e-9) {
		t.Fatalf("obj=%g x=%g, want 1.5, 0", s.Objective, s.Value(x))
	}
}

func TestEmptyProblem(t *testing.T) {
	if _, err := NewProblem(lp.Minimize).Solve(); err != ErrNoVariables {
		t.Fatalf("err=%v, want ErrNoVariables", err)
	}
}

func TestMaxNodesEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewProblem(lp.Maximize)
	terms := make([]lp.Term, 25)
	for i := range terms {
		v := p.AddBinaryVariable("x", 1+rng.Float64())
		terms[i] = tm(v, 1+rng.Float64()*3)
	}
	p.AddConstraint(lp.LE, 20, terms...)
	p.SetOptions(Options{MaxNodes: 3})
	s := solveOrDie(t, p)
	if s.Nodes > 3 {
		t.Fatalf("explored %d nodes with MaxNodes=3", s.Nodes)
	}
	if s.Status == lp.Optimal && s.Nodes >= 3 {
		t.Fatalf("claimed optimality after early stop")
	}
}

// bruteForceBinary enumerates all assignments of the binary variables
// and returns the best feasible objective, or NaN when infeasible.
type bRow struct {
	coefs []float64
	rel   lp.Rel
	rhs   float64
}

func bruteForceBinary(n int, cost []float64, rows []bRow, maximize bool) float64 {
	best := math.NaN()
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		ok := true
		for _, r := range rows {
			lhs := 0.0
			for j := range x {
				lhs += r.coefs[j] * x[j]
			}
			switch r.rel {
			case lp.LE:
				ok = ok && lhs <= r.rhs+1e-9
			case lp.GE:
				ok = ok && lhs >= r.rhs-1e-9
			case lp.EQ:
				ok = ok && math.Abs(lhs-r.rhs) <= 1e-9
			}
		}
		if !ok {
			continue
		}
		obj := 0.0
		for j := range x {
			obj += cost[j] * x[j]
		}
		if math.IsNaN(best) || (maximize && obj > best) || (!maximize && obj < best) {
			best = obj
		}
	}
	return best
}

// Property: branch and bound, and the plainTree reference, match
// exhaustive enumeration on random small binary programs, both senses,
// all relation kinds.
func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		m := 1 + rng.Intn(6)
		maximize := rng.Intn(2) == 0
		sense := lp.Minimize
		if maximize {
			sense = lp.Maximize
		}
		p := NewProblem(sense)
		cost := make([]float64, n)
		vars := make([]lp.Var, n)
		for j := 0; j < n; j++ {
			cost[j] = math.Round(rng.Float64()*20 - 10)
			vars[j] = p.AddBinaryVariable("x", cost[j])
		}
		rows := make([]bRow, m)
		for i := 0; i < m; i++ {
			coefs := make([]float64, n)
			terms := make([]lp.Term, n)
			for j := 0; j < n; j++ {
				coefs[j] = math.Round(rng.Float64()*10 - 5)
				terms[j] = tm(vars[j], coefs[j])
			}
			rel := lp.Rel(rng.Intn(2)) // LE or EQ-free mix; add GE via negation below
			if rng.Intn(2) == 0 {
				rel = lp.GE
			}
			rhs := math.Round(rng.Float64()*12 - 4)
			rows[i] = bRow{coefs, rel, rhs}
			p.AddConstraint(rel, rhs, terms...)
		}
		want := bruteForceBinary(n, cost, rows, maximize)
		s, err := p.Solve()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref := plainTree(t, p)
		if math.IsNaN(want) {
			if s.Status != lp.Infeasible || ref.Status != lp.Infeasible {
				t.Logf("seed %d: want infeasible, got mip %v obj=%g, plain %v obj=%g",
					seed, s.Status, s.Objective, ref.Status, ref.Objective)
				return false
			}
			return true
		}
		if s.Status != lp.Optimal || ref.Status != lp.Optimal {
			t.Logf("seed %d: want optimal %g, got mip %v, plain %v", seed, want, s.Status, ref.Status)
			return false
		}
		if !almostEq(s.Objective, want, 1e-5) || !almostEq(ref.Objective, want, 1e-5) {
			t.Logf("seed %d: mip=%g plain=%g brute=%g", seed, s.Objective, ref.Objective, want)
			return false
		}
		// Integer variables must be exactly integral.
		for j := range cost {
			if s.X[j] != 0 && s.X[j] != 1 {
				t.Logf("seed %d: x[%d]=%g not binary", seed, j, s.X[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartIncumbent(t *testing.T) {
	// Vertex cover on a triangle with a known feasible cover {a,b}.
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	b := p.AddBinaryVariable("b", 1)
	c := p.AddBinaryVariable("c", 1)
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(b, 1))
	p.AddConstraint(lp.GE, 1, tm(b, 1), tm(c, 1))
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(c, 1))
	p.SetOptions(Options{Incumbent: []float64{1, 1, 0}})
	s := solveOrDie(t, p)
	if s.Status != lp.Optimal || !almostEq(s.Objective, 2, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 2", s.Status, s.Objective)
	}
}

func TestWarmStartInfeasibleIgnored(t *testing.T) {
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	b := p.AddBinaryVariable("b", 1)
	p.AddConstraint(lp.GE, 1, tm(a, 1), tm(b, 1))
	// Violates the constraint: must be ignored, not believed.
	p.SetOptions(Options{Incumbent: []float64{0, 0}})
	s := solveOrDie(t, p)
	if s.Status != lp.Optimal || !almostEq(s.Objective, 1, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 1", s.Status, s.Objective)
	}
}

func TestWarmStartFractionalIgnored(t *testing.T) {
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	p.AddConstraint(lp.GE, 1, tm(a, 1))
	p.SetOptions(Options{Incumbent: []float64{0.5}})
	s := solveOrDie(t, p)
	if !almostEq(s.Objective, 1, 1e-6) {
		t.Fatalf("obj=%g, want 1", s.Objective)
	}
}

// Property: warm-started solves agree with cold solves.
func TestWarmStartAgreesWithCold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		build := func() (*Problem, []lp.Var) {
			r := rand.New(rand.NewSource(seed))
			p := NewProblem(lp.Minimize)
			vars := make([]lp.Var, n)
			for j := 0; j < n; j++ {
				vars[j] = p.AddBinaryVariable("x", 1+r.Float64()*4)
			}
			for i := 0; i < n; i++ {
				terms := []lp.Term{tm(vars[i], 1), tm(vars[(i+1)%n], 1)}
				p.AddConstraint(lp.GE, 1, terms...)
			}
			return p, vars
		}
		cold, _ := build()
		cs, err := cold.Solve()
		if err != nil || cs.Status != lp.Optimal {
			return false
		}
		warm, _ := build()
		all := make([]float64, n)
		for j := range all {
			all[j] = 1 // everything selected is always feasible here
		}
		warm.SetOptions(Options{Incumbent: all})
		ws, err := warm.Solve()
		if err != nil || ws.Status != lp.Optimal {
			return false
		}
		return almostEq(cs.Objective, ws.Objective, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveContextCanceledKeepsIncumbent: a canceled context stops the
// search but returns the warm-start incumbent with Status Canceled.
func TestSolveContextCanceledKeepsIncumbent(t *testing.T) {
	p := NewProblem(lp.Minimize)
	n := 12
	vars := make([]lp.Var, n)
	for j := range vars {
		vars[j] = p.AddBinaryVariable("x", 1)
	}
	for i := 0; i < n; i++ {
		p.AddConstraint(lp.GE, 1, tm(vars[i], 1), tm(vars[(i+1)%n], 1))
	}
	all := make([]float64, n)
	for j := range all {
		all[j] = 1
	}
	p.SetOptions(Options{Incumbent: all})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := p.SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Canceled {
		t.Fatalf("status %v, want Canceled", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("incumbent discarded on cancellation")
	}
	if sol.Objective != float64(n) {
		t.Fatalf("objective %g, want the warm start %d", sol.Objective, n)
	}

	// The same problem without cancellation is solved to optimality and
	// reports effort counters.
	opt, err := p.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Status != lp.Optimal || opt.Objective > sol.Objective {
		t.Fatalf("optimal solve: %+v", opt)
	}
	if opt.Pivots == 0 || opt.Nodes == 0 {
		t.Fatalf("missing effort counters: %+v", opt)
	}
	if opt.Bound != opt.Objective {
		t.Fatalf("bound %g != objective %g at optimality", opt.Bound, opt.Objective)
	}
}

// countdownCtx reports itself canceled after a fixed number of Err()
// polls, which lands the cancellation deterministically inside the
// branch-and-bound loop (after the root relaxation solved).
type countdownCtx struct {
	context.Context
	calls     *int
	fireAfter int
}

func (c countdownCtx) Err() error {
	*c.calls++
	if *c.calls > c.fireAfter {
		return context.Canceled
	}
	return nil
}

// TestCancellationMidSearchCountsPivots: a context firing mid-search
// must not lose the pivot counters of the nodes already solved (or of
// the node being interrupted) — the regression companion of
// TestSolveContextCanceledKeepsIncumbent, which cancels before any
// node is explored.
func TestCancellationMidSearchCountsPivots(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(lp.Minimize)
		n := 13 // an odd ring: the cover relaxation is fractional, forcing branching
		vars := make([]lp.Var, n)
		for j := range vars {
			vars[j] = p.AddBinaryVariable("x", 1)
		}
		for i := 0; i < n; i++ {
			p.AddConstraint(lp.GE, 1, tm(vars[i], 1), tm(vars[(i+1)%n], 1))
		}
		all := make([]float64, n)
		for j := range all {
			all[j] = 1
		}
		p.SetOptions(Options{Incumbent: all})
		return p
	}
	// Reference run: how many nodes/pivots the full solve needs.
	full := solveOrDie(t, build())
	if full.Status != lp.Optimal || full.Nodes < 2 || full.Pivots == 0 {
		t.Fatalf("reference solve too easy for this test: %+v", full)
	}

	// Fire the cancellation a few polls in: the root relaxation
	// completes and the search dies at a later node boundary or inside
	// a later relaxation.
	calls := 0
	ctx := countdownCtx{Context: context.Background(), calls: &calls, fireAfter: 3}
	sol, err := build().SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Canceled {
		t.Fatalf("status %v, want Canceled", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("incumbent discarded on mid-search cancellation")
	}
	if sol.Pivots == 0 {
		t.Fatal("interrupted search lost its pivot count")
	}
	if sol.Nodes == 0 {
		t.Fatal("interrupted search lost its node count")
	}
}

// TestWarmStartCountersSurface: solving a branchy MIP reports
// warm-started nodes and refactorizations, and agrees with the
// plainTree reference on the optimum.
func TestWarmStartCountersSurface(t *testing.T) {
	build := func() *Problem {
		rng := rand.New(rand.NewSource(17))
		p := NewProblem(lp.Minimize)
		n := 14
		vars := make([]lp.Var, n)
		for j := range vars {
			vars[j] = p.AddBinaryVariable("x", 1+rng.Float64())
		}
		for i := 0; i < 2*n; i++ {
			var terms []lp.Term
			for j := range vars {
				if rng.Intn(3) == 0 {
					terms = append(terms, tm(vars[j], 1))
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(lp.GE, 1, terms...)
		}
		return p
	}
	sp := solveOrDie(t, build())
	ref := plainTree(t, build())
	if sp.Status != lp.Optimal || ref.Status != lp.Optimal {
		t.Fatalf("statuses: mip=%v plain=%v", sp.Status, ref.Status)
	}
	if !almostEq(sp.Objective, ref.Objective, 1e-6) {
		t.Fatalf("objectives differ: mip=%g plain=%g", sp.Objective, ref.Objective)
	}
	if sp.Nodes > 1 && sp.WarmStarts == 0 {
		t.Fatalf("branchy solve used no warm starts: %+v", sp)
	}
	if sp.Refactorizations == 0 {
		t.Fatalf("solve reported no refactorizations: %+v", sp)
	}
}
