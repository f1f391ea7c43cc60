package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// This is the contract the branch-and-bound MIP relies on. A third of
// the children also pin every variable of one row to 0, which makes
// them infeasible, so the warm path's certified infeasibility claims
// are held to the cold answer too.
func TestWarmStartAgreesWithCold(t *testing.T) {
	warmUsed, certified := 0, 0
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
		// Branch: pin one variable to 0 or 1, and in a third of the
		// draws every variable of one row to 0.
		v := Var(rng.Intn(parent.NumVariables()))
		side := float64(rng.Intn(2))
		var zeroed []Term
		if rng.Intn(3) == 0 {
			_, _, zeroed = parent.ConstraintRow(rng.Intn(parent.NumConstraints()))
		}
		pin := func(p *Problem) {
			p.SetBounds(v, side, side)
			for _, t := range zeroed {
				p.SetBounds(t.Var, 0, 0)
			}
		}
		pin(parent)

		warm, err := parent.SolveContextFrom(context.Background(), basis)
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		cold := build()
		pin(cold)
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
			if warm.Status == Infeasible {
				certified++
			}
		}
	}
	if warmUsed == 0 {
		t.Fatal("warm path never engaged across 150 seeds")
	}
	if certified == 0 {
		t.Fatal("no warm infeasibility claim was certified across 150 seeds")
	}
}

// TestFarkasCertificate checks the infeasibility check on its own: a
// valid ρ proves a small infeasible LP, the same ρ is rejected once the
// bounds are relaxed so the LP is feasible, and BTRAN-sized noise on a
// row with an unbounded slack does not stop the proof.
func TestFarkasCertificate(t *testing.T) {
	// x + y ≥ 3 with x, y ∈ [0, 1]: with ρ = (1, 0), x + y − s = 3
	// for s ≥ 0 puts ρ·A·(x, y, s) in (−∞, 2], away from ρ·b = 3. The
	// second row, x − y ≤ 5, has a slack in [0, ∞).
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, 1, 1)
	y := p.AddVariable("y", 0, 1, 1)
	p.AddConstraint(GE, 3, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 5, Term{x, 1}, Term{y, -1})
	if s, _ := p.Solve(); s.Status != Infeasible {
		t.Fatalf("cold solve: %v, want infeasible", s.Status)
	}
	if !farkasCertified(p, []float64{1, 0}) {
		t.Fatal("valid certificate rejected")
	}
	// 1e-14 on the second row would add +1e-14·s to ρ·A·(x, y, s),
	// unbounded above, unless it is zeroed first.
	if !farkasCertified(p, []float64{1, 1e-14}) {
		t.Fatal("certificate with noise on an unbounded slack rejected")
	}
	if farkasCertified(p, []float64{0, 0}) {
		t.Fatal("zero vector accepted as a certificate")
	}
	// x ∈ [0, 2] makes x = 2, y = 1 feasible.
	p.SetBounds(x, 0, 2)
	if s, _ := p.Solve(); s.Status != Optimal {
		t.Fatalf("relaxed cold solve: %v, want optimal", s.Status)
	}
	for _, rho := range [][]float64{{1, 0}, {1, 1e-14}} {
		if farkasCertified(p, rho) {
			t.Fatalf("ρ = %v accepted on a feasible LP", rho)
		}
	}
}

// TestWorkspaceReuseBitIdentical drives one Problem through random
// bound changes and re-solves, warm-started from earlier solutions,
// with sibling seeds back to back and the occasional added or removed
// row, and requires every Solution to equal, field for field, what a
// fresh copy of the Problem returns for the same bounds and seed. Only
// Refactorizations may differ, and only downward: a seed slot reuse is
// not a factorization.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	var reuses, certified, warm int
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, up := workspaceLP(rng)
		rows := p.NumConstraints()
		var bases []*Basis
		var prev *Basis
		for step := 0; step < 40; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				n := p.NumVariables()
				p.AddConstraint(GE, rng.Float64(), Term{Var(rng.Intn(n)), 1}, Term{Var(rng.Intn(n)), 1 + rng.Float64()})
			case r == 1:
				p.TruncateConstraints(rows)
			}
			p.SetExtractDuals(rng.Intn(4) == 0)
			var from *Basis
			switch r := rng.Intn(10); {
			case r < 3 && prev != nil:
				// A sibling: the previous solve's seed, one variable's
				// bounds moved.
				from = prev
			case r < 6 && len(bases) > 0:
				from = bases[len(bases)-1]
			case r < 8 && len(bases) > 0:
				from = bases[rng.Intn(len(bases))]
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				j := rng.Intn(p.NumVariables())
				lo, hi := 0.0, up[j]
				switch rng.Intn(4) {
				case 0:
					hi = 0
				case 1:
					lo = math.Min(1, hi)
					hi = lo
				case 2:
					lo = math.Min(1, hi)
				}
				p.SetBounds(Var(j), lo, hi)
			}
			want, _ := freshCopy(p).SolveContextFrom(context.Background(), from)
			got, _ := p.SolveContextFrom(context.Background(), from)
			if diff := solutionDiff(got, want); diff != "" {
				t.Fatalf("seed %d step %d: reused workspace differs from a fresh copy: %s", seed, step, diff)
			}
			if got.Refactorizations < want.Refactorizations {
				reuses++
			}
			if got.Warm {
				warm++
				if got.Status == Infeasible {
					certified++
				}
			}
			if got.Status == Optimal {
				bases = append(bases, got.Basis())
			}
			prev = from
		}
	}
	t.Logf("%d warm solves, %d seed slot reuses, %d certified infeasible", warm, reuses, certified)
	if reuses == 0 || certified == 0 {
		t.Fatalf("the draws never reused the seed slot (%d) or certified infeasibility (%d)", reuses, certified)
	}
}

// workspaceLP draws a covering-style LP for the workspace test: GE rows
// over variables in [0, 1], [0, 2.5] or [0, ∞), some LE rows, and
// costs that keep every draw bounded. Half the draws repeat an equality
// row x_a − x_b = c, which leaves an artificial basic in the optimal
// basis, with a sign that moves with the lower bounds of x_a and x_b.
// It returns each variable's original upper bound.
func workspaceLP(rng *rand.Rand) (*Problem, []float64) {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	n := 3 + rng.Intn(8)
	up := make([]float64, n)
	for j := range up {
		up[j] = []float64{1, 1, 2.5, Inf}[rng.Intn(4)]
		c := 0.5 + rng.Float64()
		if sense == Maximize {
			c = -c
		}
		p.AddVariable("x", 0, up[j], c)
	}
	for i := 0; i < n; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var(j), 1 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var(i), 1})
		}
		if rng.Intn(4) == 0 {
			p.AddConstraint(LE, 2+rng.Float64()*4, terms...)
		} else {
			p.AddConstraint(GE, rng.Float64()*2, terms...)
		}
	}
	if rng.Intn(2) == 0 {
		a, b, c := Var(rng.Intn(n)), Var(rng.Intn(n)), rng.Float64()
		for k := 0; k < 2; k++ {
			p.AddConstraint(EQ, c, Term{a, 1}, Term{b, -1})
		}
	}
	return p, up
}

// freshCopy rebuilds p through the public API, with its current bounds.
func freshCopy(p *Problem) *Problem {
	q := NewProblem(p.Sense())
	for j := 0; j < p.NumVariables(); j++ {
		lo, hi := p.Bounds(Var(j))
		q.AddVariable(p.VarName(Var(j)), lo, hi, p.Cost(Var(j)))
	}
	for i := 0; i < p.NumConstraints(); i++ {
		rel, rhs, terms := p.ConstraintRow(i)
		q.AddConstraint(rel, rhs, terms...)
	}
	q.SetExtractDuals(p.extractDuals)
	return q
}

// solutionDiff names the first field in which a and b differ, every
// float compared bit for bit, or returns "". Refactorizations is left
// to the caller.
func solutionDiff(a, b *Solution) string {
	bits := func(v []float64) []uint64 {
		if v == nil {
			return nil
		}
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"Status", a.Status, b.Status},
		{"Objective", math.Float64bits(a.Objective), math.Float64bits(b.Objective)},
		{"X", bits(a.X), bits(b.X)},
		{"Iterations", a.Iterations, b.Iterations},
		{"DevexResets", a.DevexResets, b.DevexResets},
		{"Warm", a.Warm, b.Warm},
		{"Duals", bits(a.Duals), bits(b.Duals)},
		{"ReducedCosts", bits(a.ReducedCosts), bits(b.ReducedCosts)},
		{"Basis", a.Basis(), b.Basis()},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Sprintf("%s: %v vs %v", f.name, f.a, f.b)
		}
	}
	return ""
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
