package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a random bounded LP with mixed LE/GE/EQ rows, finite
// and infinite upper bounds, negative lower bounds, and no feasibility
// guarantee — infeasible and unbounded instances are part of the draw.
func randomLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(12)
	m := 1 + rng.Intn(14)
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		lo := 0.0
		if rng.Intn(4) == 0 {
			lo = -1 - rng.Float64()*4
		}
		up := lo + 1 + rng.Float64()*9
		if rng.Intn(3) == 0 {
			up = Inf
		}
		vars[j] = p.AddVariable("x", lo, up, math.Round(rng.Float64()*20-10)/2)
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) != 0 {
				terms = append(terms, Term{vars[j], math.Round(rng.Float64()*8-4) / 2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{vars[rng.Intn(n)], 1})
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		p.AddConstraint(rel, math.Round(rng.Float64()*20-6)/2, terms...)
	}
	return p
}

// TestSparseDenseAgreeProperty checks the tentpole invariant: the
// sparse revised simplex and the dense tableau oracle agree on status
// and objective (±1e-6) across ~200 random LPs covering every row
// relation, upper-bounded variables, and infeasible/unbounded draws.
func TestSparseDenseAgreeProperty(t *testing.T) {
	statuses := make(map[Status]int)
	for seed := int64(0); seed < 200; seed++ {
		sparse := randomLP(seed)
		ss, err := sparse.Solve()
		if err != nil {
			t.Fatalf("seed %d: sparse: %v", seed, err)
		}
		ds := solveDense(randomLP(seed))
		statuses[ss.Status]++
		if ss.Status != ds.Status {
			t.Errorf("seed %d: status sparse=%v dense=%v", seed, ss.Status, ds.Status)
			continue
		}
		if ss.Status != Optimal {
			continue
		}
		tol := 1e-6 * (1 + math.Abs(ds.Objective))
		if math.Abs(ss.Objective-ds.Objective) > tol {
			t.Errorf("seed %d: objective sparse=%g dense=%g", seed, ss.Objective, ds.Objective)
		}
		// The sparse solution must satisfy the problem it solved.
		if _, feas := sparse.Evaluate(ss.X); !feas {
			t.Errorf("seed %d: sparse solution infeasible", seed)
		}
	}
	// The draw must actually cover all three outcomes, or the test
	// proves less than it claims.
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Fatalf("no %v instance among the draws: %v", st, statuses)
		}
	}
}

// TestSparseDenseAgreeUpperBounded focuses the agreement property on
// fully boxed variables (every bound finite), where bound flips carry
// most of the work.
func TestSparseDenseAgreeUpperBounded(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := 2 + rng.Intn(8)
		build := func() *Problem {
			r := rand.New(rand.NewSource(seed))
			p := NewProblem(Minimize)
			for j := 0; j < n; j++ {
				p.AddVariable("x", 0, 1+r.Float64()*3, r.Float64()*10-5)
			}
			for i := 0; i < n+2; i++ {
				terms := make([]Term, n)
				for j := 0; j < n; j++ {
					terms[j] = Term{Var(j), r.Float64()*2 - 1}
				}
				p.AddConstraint(LE, r.Float64()*4, terms...)
			}
			return p
		}
		ss, _ := build().Solve()
		ds := solveDense(build())
		if ss.Status != ds.Status {
			t.Fatalf("seed %d: status sparse=%v dense=%v", seed, ss.Status, ds.Status)
		}
		if ss.Status == Optimal && !almostEq(ss.Objective, ds.Objective, 1e-6*(1+math.Abs(ds.Objective))) {
			t.Fatalf("seed %d: objective sparse=%g dense=%g", seed, ss.Objective, ds.Objective)
		}
	}
}

// TestBealeCycling solves Beale's classic cycling LP — Dantzig pricing
// stalls on degenerate pivots until the Bland fallback engages — with
// the revised simplex and the dense oracle.
func TestBealeCycling(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(Minimize)
		x1 := p.AddVariable("x1", 0, Inf, -0.75)
		x2 := p.AddVariable("x2", 0, Inf, 150)
		x3 := p.AddVariable("x3", 0, Inf, -0.02)
		x4 := p.AddVariable("x4", 0, Inf, 6)
		p.AddConstraint(LE, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
		p.AddConstraint(LE, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
		p.AddConstraint(LE, 1, Term{x3, 1})
		return p
	}
	sparse, err := build().Solve()
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	for _, tc := range []struct {
		name string
		s    *Solution
	}{{"sparse", sparse}, {"dense", solveDense(build())}} {
		if tc.s.Status != Optimal || !almostEq(tc.s.Objective, -0.05, 1e-9) {
			t.Fatalf("%s: status=%v obj=%g, want optimal -0.05", tc.name, tc.s.Status, tc.s.Objective)
		}
	}
}

// TestWarmStartAgreesWithCold re-solves random LPs after a
// branch-style bound tightening, once cold and once warm-started from
// the parent basis, and requires identical statuses and objectives.
// This is the contract the branch-and-bound MIP relies on.
func TestWarmStartAgreesWithCold(t *testing.T) {
	warmUsed := 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		build := func() *Problem {
			r := rand.New(rand.NewSource(seed))
			p := NewProblem(Minimize)
			n := 3 + r.Intn(8)
			for j := 0; j < n; j++ {
				p.AddVariable("x", 0, 1, r.Float64()*4-2)
			}
			for i := 0; i < n; i++ {
				var terms []Term
				for j := 0; j < n; j++ {
					if r.Intn(2) == 0 {
						terms = append(terms, Term{Var(j), 1 + r.Float64()})
					}
				}
				if len(terms) == 0 {
					terms = append(terms, Term{Var(i % n), 1})
				}
				p.AddConstraint(GE, r.Float64()*2, terms...)
			}
			return p
		}
		parent := build()
		ps, err := parent.Solve()
		if err != nil || ps.Status != Optimal {
			continue // infeasible draws carry no basis to warm from
		}
		basis := ps.Basis()
		if basis == nil {
			t.Fatalf("seed %d: optimal sparse solve returned no basis", seed)
		}
		// Branch: pin one variable to 0 or 1.
		v := Var(rng.Intn(parent.NumVariables()))
		side := float64(rng.Intn(2))
		parent.SetBounds(v, side, side)

		warm, err := parent.SolveContextFrom(context.Background(), basis)
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		cold := build()
		cold.SetBounds(v, side, side)
		cs, err := cold.Solve()
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		if warm.Status != cs.Status {
			t.Fatalf("seed %d: status warm=%v cold=%v", seed, warm.Status, cs.Status)
		}
		if warm.Status == Optimal && !almostEq(warm.Objective, cs.Objective, 1e-6*(1+math.Abs(cs.Objective))) {
			t.Fatalf("seed %d: objective warm=%g cold=%g", seed, warm.Objective, cs.Objective)
		}
		if warm.Warm {
			warmUsed++
		}
	}
	if warmUsed == 0 {
		t.Fatal("warm path never engaged across 150 seeds")
	}
}

// TestWarmStartShapeMismatchFallsBack: a basis from a different problem
// shape must be ignored, not trusted.
func TestWarmStartShapeMismatchFallsBack(t *testing.T) {
	small := NewProblem(Minimize)
	small.AddVariable("x", 0, 1, 1)
	small.AddConstraint(GE, 1, Term{Var(0), 1})
	ss, err := small.Solve()
	if err != nil || ss.Status != Optimal {
		t.Fatalf("small solve: %v %+v", err, ss)
	}
	big := NewProblem(Minimize)
	x := big.AddVariable("x", 0, 5, 1)
	y := big.AddVariable("y", 0, 5, 2)
	big.AddConstraint(GE, 3, Term{x, 1}, Term{y, 1})
	bs, err := big.SolveContextFrom(context.Background(), ss.Basis())
	if err != nil || bs.Status != Optimal || !almostEq(bs.Objective, 3, 1e-6) {
		t.Fatalf("mismatched warm solve: %v %+v", err, bs)
	}
	if bs.Warm {
		t.Fatal("shape-mismatched basis must not count as a warm start")
	}
}

// TestRevisedCountersReported: the revised simplex reports
// refactorization work and agrees with the dense oracle on the optimum.
func TestRevisedCountersReported(t *testing.T) {
	build := func() *Problem {
		rng := rand.New(rand.NewSource(11))
		p := NewProblem(Minimize)
		n := 40
		for j := 0; j < n; j++ {
			p.AddVariable("x", 0, Inf, 1+rng.Float64())
		}
		for i := 0; i < 2*n; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					terms = append(terms, Term{Var(j), 1 + rng.Float64()})
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(GE, 1+rng.Float64()*5, terms...)
		}
		return p
	}
	sp, err := build().Solve()
	if err != nil || sp.Status != Optimal {
		t.Fatalf("sparse: %v %+v", err, sp)
	}
	if sp.Refactorizations == 0 {
		t.Fatal("sparse solve reported no refactorizations")
	}
	dn := solveDense(build())
	if dn.Status != Optimal {
		t.Fatalf("dense: %+v", dn)
	}
	if !almostEq(sp.Objective, dn.Objective, 1e-6*(1+math.Abs(dn.Objective))) {
		t.Fatalf("objectives differ: sparse=%g dense=%g", sp.Objective, dn.Objective)
	}
}
