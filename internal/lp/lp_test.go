package lp

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func solveOrDie(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestSimpleMin(t *testing.T) {
	// min x + y s.t. x + y >= 2, x >= 0, y >= 0 → obj 2.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 1)
	y := p.AddVariable("y", 0, Inf, 1)
	p.AddConstraint(GE, 2, Term{x, 1}, Term{y, 1})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 2, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 2", s.Status, s.Objective)
	}
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → obj 36 (x=2,y=6).
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 0, Inf, 3)
	y := p.AddVariable("y", 0, Inf, 5)
	p.AddConstraint(LE, 4, Term{x, 1})
	p.AddConstraint(LE, 12, Term{y, 2})
	p.AddConstraint(LE, 18, Term{x, 3}, Term{y, 2})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 36, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 36", s.Status, s.Objective)
	}
	if !almostEq(s.Value(x), 2, 1e-6) || !almostEq(s.Value(y), 6, 1e-6) {
		t.Fatalf("x=%g y=%g, want 2,6", s.Value(x), s.Value(y))
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj 24.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 2)
	y := p.AddVariable("y", 0, Inf, 3)
	p.AddConstraint(EQ, 10, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 2, Term{x, 1}, Term{y, -1})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 24, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 24", s.Status, s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 1)
	p.AddConstraint(GE, 5, Term{x, 1})
	p.AddConstraint(LE, 3, Term{x, 1})
	s := solveOrDie(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", s.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, 1, 1)
	y := p.AddVariable("y", 0, 1, 1)
	p.AddConstraint(GE, 3, Term{x, 1}, Term{y, 1})
	s := solveOrDie(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 0, Inf, 1)
	y := p.AddVariable("y", 0, Inf, 1)
	p.AddConstraint(GE, 1, Term{x, 1}, Term{y, 1})
	s := solveOrDie(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status=%v, want unbounded", s.Status)
	}
}

func TestBoxOnlyNoConstraints(t *testing.T) {
	// min -x - 2y with 0 <= x <= 3, 0 <= y <= 4: x=3, y=4, obj -11.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, 3, -1)
	y := p.AddVariable("y", 0, 4, -2)
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, -11, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal -11", s.Status, s.Objective)
	}
	_ = x
	_ = y
}

func TestNegativeLowerBound(t *testing.T) {
	// min x with -5 <= x <= 5, x >= -3 → x = -3.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", -5, 5, 1)
	p.AddConstraint(GE, -3, Term{x, 1})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Value(x), -3, 1e-6) {
		t.Fatalf("status=%v x=%g, want optimal -3", s.Status, s.Value(x))
	}
}

func TestFixedVariable(t *testing.T) {
	// A variable fixed by its bounds participates as a constant.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 2, 2, 0)
	y := p.AddVariable("y", 0, Inf, 1)
	p.AddConstraint(GE, 5, Term{x, 1}, Term{y, 1})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Value(y), 3, 1e-6) {
		t.Fatalf("status=%v y=%g, want optimal 3", s.Status, s.Value(y))
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// x + x >= 4 must behave as 2x >= 4.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 1)
	p.AddConstraint(GE, 4, Term{x, 1}, Term{x, 1})
	s := solveOrDie(t, p)
	if !almostEq(s.Value(x), 2, 1e-6) {
		t.Fatalf("x=%g, want 2", s.Value(x))
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate corner: several constraints meet at the optimum.
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 0, Inf, 10)
	y := p.AddVariable("y", 0, Inf, -57)
	z := p.AddVariable("z", 0, Inf, -9)
	w := p.AddVariable("w", 0, Inf, -24)
	p.AddConstraint(LE, 0, Term{x, 0.5}, Term{y, -5.5}, Term{z, -2.5}, Term{w, 9})
	p.AddConstraint(LE, 0, Term{x, 0.5}, Term{y, -1.5}, Term{z, -0.5}, Term{w, 1})
	p.AddConstraint(LE, 1, Term{x, 1})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 1, 1e-5) {
		t.Fatalf("status=%v obj=%g, want optimal 1", s.Status, s.Objective)
	}
}

func TestSetBoundsResolve(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, 1, -1)
	y := p.AddVariable("y", 0, 1, -1)
	p.AddConstraint(LE, 1.5, Term{x, 1}, Term{y, 1})
	s := solveOrDie(t, p)
	if !almostEq(s.Objective, -1.5, 1e-6) {
		t.Fatalf("first solve obj=%g, want -1.5", s.Objective)
	}
	// Fix x to 0 as branch-and-bound would and re-solve.
	p.SetBounds(x, 0, 0)
	s = solveOrDie(t, p)
	if !almostEq(s.Objective, -1, 1e-6) || !almostEq(s.Value(y), 1, 1e-6) {
		t.Fatalf("second solve obj=%g y=%g, want -1, 1", s.Objective, s.Value(y))
	}
}

func TestEmptyProblem(t *testing.T) {
	if _, err := NewProblem(Minimize).Solve(); err != ErrNoVariables {
		t.Fatalf("err=%v, want ErrNoVariables", err)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows exercise the redundant-row handling in
	// the artificial eviction step.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 1)
	y := p.AddVariable("y", 0, Inf, 1)
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 8, Term{x, 2}, Term{y, 2})
	s := solveOrDie(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 4, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 4", s.Status, s.Objective)
	}
}

func TestVarAccessors(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("flow", 1, 7, -2)
	if p.VarName(x) != "flow" {
		t.Fatalf("name=%q", p.VarName(x))
	}
	lo, hi := p.Bounds(x)
	if lo != 1 || hi != 7 {
		t.Fatalf("bounds=[%g,%g]", lo, hi)
	}
	s := solveOrDie(t, p)
	if !almostEq(s.Value(x), 7, 1e-9) {
		t.Fatalf("x=%g, want upper bound 7", s.Value(x))
	}
	if p.NumVariables() != 1 || p.NumConstraints() != 0 {
		t.Fatal("counts wrong")
	}
}

func TestBadVariablePanics(t *testing.T) {
	p := NewProblem(Minimize)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on empty bound range")
		}
	}()
	p.AddVariable("x", 3, 1, 0)
}

func TestBadTermPanics(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVariable("x", 0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unknown variable in constraint")
		}
	}()
	p.AddConstraint(LE, 1, Term{Var(5), 1})
}

func TestStatusAndRelStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration limit" {
		t.Fatal("Status strings wrong")
	}
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Fatal("Rel strings wrong")
	}
	if Status(42).String() == "" || Rel(42).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}

// Fractional knapsack: max Σ v·x, Σ w·x <= W, 0 <= x <= 1. The greedy
// by value density is provably optimal, giving an independent reference.
func TestFractionalKnapsackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		v := make([]float64, n)
		w := make([]float64, n)
		var totW float64
		for i := 0; i < n; i++ {
			v[i] = 1 + rng.Float64()*9
			w[i] = 1 + rng.Float64()*9
			totW += w[i]
		}
		W := totW * (0.2 + 0.6*rng.Float64())

		// Greedy reference.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]]/w[idx[a]] > v[idx[b]]/w[idx[b]] })
		remain, want := W, 0.0
		for _, i := range idx {
			take := math.Min(1, remain/w[i])
			if take <= 0 {
				break
			}
			want += take * v[i]
			remain -= take * w[i]
		}

		p := NewProblem(Maximize)
		terms := make([]Term, n)
		for i := 0; i < n; i++ {
			x := p.AddVariable("x", 0, 1, v[i])
			terms[i] = Term{x, w[i]}
		}
		p.AddConstraint(LE, W, terms...)
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			t.Logf("seed %d: solve failed: %v %v", seed, err, s)
			return false
		}
		if !almostEq(s.Objective, want, 1e-5*(1+want)) {
			t.Logf("seed %d: lp=%g greedy=%g", seed, s.Objective, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Random feasible LPs: build constraints around a known feasible point so
// feasibility is guaranteed, then verify the returned solution satisfies
// every constraint and has an objective no worse than the seed point.
func TestRandomFeasibleLPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(10)
		x0 := make([]float64, n)
		ub := make([]float64, n)
		cost := make([]float64, n)
		for j := 0; j < n; j++ {
			ub[j] = 1 + rng.Float64()*9
			x0[j] = rng.Float64() * ub[j]
			cost[j] = rng.Float64()*10 - 5
		}
		p := NewProblem(Minimize)
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddVariable("x", 0, ub[j], cost[j])
		}
		type crow struct {
			coefs []float64
			rel   Rel
			rhs   float64
		}
		var crows []crow
		for i := 0; i < m; i++ {
			coefs := make([]float64, n)
			lhs := 0.0
			for j := 0; j < n; j++ {
				coefs[j] = rng.Float64()*4 - 2
				lhs += coefs[j] * x0[j]
			}
			var rel Rel
			var rhs float64
			switch rng.Intn(3) {
			case 0:
				rel, rhs = LE, lhs+rng.Float64()*3
			case 1:
				rel, rhs = GE, lhs-rng.Float64()*3
			default:
				rel, rhs = EQ, lhs
			}
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{vars[j], coefs[j]}
			}
			p.AddConstraint(rel, rhs, terms...)
			crows = append(crows, crow{coefs, rel, rhs})
		}
		s, err := p.Solve()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if s.Status != Optimal {
			t.Logf("seed %d: status %v on a feasible instance", seed, s.Status)
			return false
		}
		// Check feasibility of the answer.
		for i, r := range crows {
			lhs := 0.0
			for j := 0; j < n; j++ {
				lhs += r.coefs[j] * s.X[j]
			}
			switch r.rel {
			case LE:
				if lhs > r.rhs+1e-5 {
					t.Logf("seed %d: row %d violated: %g > %g", seed, i, lhs, r.rhs)
					return false
				}
			case GE:
				if lhs < r.rhs-1e-5 {
					t.Logf("seed %d: row %d violated: %g < %g", seed, i, lhs, r.rhs)
					return false
				}
			case EQ:
				if math.Abs(lhs-r.rhs) > 1e-5 {
					t.Logf("seed %d: row %d violated: %g != %g", seed, i, lhs, r.rhs)
					return false
				}
			}
		}
		for j := 0; j < n; j++ {
			if s.X[j] < -1e-6 || s.X[j] > ub[j]+1e-6 {
				t.Logf("seed %d: x[%d]=%g outside [0,%g]", seed, j, s.X[j], ub[j])
				return false
			}
		}
		// Optimality sanity: no worse than the known feasible point.
		obj0 := 0.0
		for j := 0; j < n; j++ {
			obj0 += cost[j] * x0[j]
		}
		if s.Objective > obj0+1e-5*(1+math.Abs(obj0)) {
			t.Logf("seed %d: objective %g worse than feasible point %g", seed, s.Objective, obj0)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: solving the identical problem twice must give the same
// objective and iteration count.
func TestSolveDeterministic(t *testing.T) {
	build := func() *Problem {
		rng := rand.New(rand.NewSource(99))
		p := NewProblem(Minimize)
		vars := make([]Var, 6)
		for j := range vars {
			vars[j] = p.AddVariable("x", 0, 5, rng.Float64()*4-2)
		}
		for i := 0; i < 8; i++ {
			terms := make([]Term, len(vars))
			for j := range vars {
				terms[j] = Term{vars[j], rng.Float64()*2 - 1}
			}
			p.AddConstraint(LE, rng.Float64()*5, terms...)
		}
		return p
	}
	s1 := solveOrDie(t, build())
	s2 := solveOrDie(t, build())
	if s1.Status != s2.Status || s1.Iterations != s2.Iterations || !almostEq(s1.Objective, s2.Objective, 1e-12) {
		t.Fatalf("non-deterministic solve: %+v vs %+v", s1, s2)
	}
}

// TestSolveContextCanceled: a canceled context interrupts the pivot
// loop with a Canceled status instead of spinning to optimality.
func TestSolveContextCanceled(t *testing.T) {
	p := NewProblem(Minimize)
	n := 40
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = p.AddVariable("x", 0, Inf, 1+float64(j%7))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2*n; i++ {
		var terms []Term
		for j := range vars {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{Var: vars[j], Coef: 1 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint(GE, 1+rng.Float64()*5, terms...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := p.SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Canceled {
		t.Fatalf("status %v, want Canceled", sol.Status)
	}
	// And the background context still solves to optimality.
	opt, err := p.SolveContext(context.Background())
	if err != nil || opt.Status != Optimal {
		t.Fatalf("background solve: %v %+v", err, opt)
	}
}
