package mip

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// buildRandomMIP draws a random mixed binary/continuous program with
// fixed variables, empty columns, duplicate rows and all relation
// kinds, so presolve has something to chew on. The same seed always
// produces the same instance.
func buildRandomMIP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(9)
	m := 1 + rng.Intn(6)
	maximize := rng.Intn(2) == 0
	sense := lp.Minimize
	if maximize {
		sense = lp.Maximize
	}
	p := NewProblem(sense)
	vars := make([]lp.Var, 0, n+3)
	for j := 0; j < n; j++ {
		cost := math.Round(rng.Float64()*20 - 10)
		if rng.Intn(4) == 0 {
			// Bounded continuous variable in the mix.
			vars = append(vars, p.AddVariable("c", 0, 1+rng.Float64()*2, cost))
		} else {
			vars = append(vars, p.AddBinaryVariable("x", cost))
		}
	}
	for i := 0; i < m; i++ {
		terms := make([]lp.Term, 0, n)
		for _, v := range vars {
			if c := math.Round(rng.Float64()*10 - 5); c != 0 {
				terms = append(terms, lp.Term{Var: v, Coef: c})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := lp.LE
		switch rng.Intn(3) {
		case 1:
			rel = lp.GE
		case 2:
			if rng.Intn(3) == 0 { // EQ rows sparingly: most should be feasible
				rel = lp.EQ
			}
		}
		rhs := math.Round(rng.Float64()*14 - 3)
		p.AddConstraint(rel, rhs, terms...)
		if rng.Intn(5) == 0 {
			p.AddConstraint(rel, rhs, terms...) // duplicate row for presolve
		}
	}
	// Presolve fodder: a fixed binary and an empty column.
	fv := p.AddBinaryVariable("fixed", 1)
	p.FixVariable(fv, float64(rng.Intn(2)))
	p.AddVariable("empty", 0, 3, math.Round(rng.Float64()*4-2))
	return p
}

// TestStrengthenedMatchesPlainTree is the core property suite of the
// root-strengthening pipeline: on 200 random instances the default
// (presolve + cuts + reduced-cost fixing + pseudo-cost branching)
// solver and the plainTree reference must agree on feasibility and on
// the optimal objective to 1e-6, and the strengthened solution vector
// must be full-length and feasible in the caller's variable space
// (presolve's postsolve at work).
func TestStrengthenedMatchesPlainTree(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		strong := buildRandomMIP(seed)
		ss, err := strong.Solve()
		if err != nil {
			t.Fatalf("seed %d: strengthened: %v", seed, err)
		}
		ps := plainTree(t, buildRandomMIP(seed))
		if ss.Status != ps.Status {
			t.Fatalf("seed %d: status %v (strengthened) vs %v (plain)", seed, ss.Status, ps.Status)
		}
		if ss.Status != lp.Optimal {
			continue
		}
		if math.Abs(ss.Objective-ps.Objective) > 1e-6 {
			t.Fatalf("seed %d: objective %g (strengthened) vs %g (plain)", seed, ss.Objective, ps.Objective)
		}
		if len(ss.X) != strong.NumVariables() {
			t.Fatalf("seed %d: postsolve returned %d values for %d variables", seed, len(ss.X), strong.NumVariables())
		}
		if obj, feasible := strong.lp.Evaluate(ss.X); !feasible || math.Abs(obj-ss.Objective) > 1e-6 {
			t.Fatalf("seed %d: postsolved solution infeasible or off-objective (feasible=%v obj=%g want %g)",
				seed, feasible, obj, ss.Objective)
		}
	}
}

// TestReducedCostFixingNeverExcisesOptimum compares the default solver
// against the plainTree reference on instances carrying a (deliberately
// weak) warm-start incumbent, so the fixing machinery actually engages.
// Objectives must match; across the suite at least one solve must
// report fixed variables, proving the machinery ran at all.
func TestReducedCostFixingNeverExcisesOptimum(t *testing.T) {
	engaged := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		build := func() *Problem {
			r := rand.New(rand.NewSource(seed))
			p := NewProblem(lp.Minimize)
			vars := make([]lp.Var, n)
			for j := range vars {
				vars[j] = p.AddBinaryVariable("x", 1+math.Round(r.Float64()*5))
			}
			for i := 0; i < 2*n; i++ {
				var terms []lp.Term
				for j := range vars {
					if r.Intn(3) == 0 {
						terms = append(terms, lp.Term{Var: vars[j], Coef: 1})
					}
				}
				if len(terms) == 0 {
					continue
				}
				p.AddConstraint(lp.GE, 1, terms...)
			}
			// All-ones is always feasible for a covering program: a
			// valid but weak incumbent that leaves the gap wide open.
			inc := make([]float64, n)
			for j := range inc {
				inc[j] = 1
			}
			p.SetOptions(Options{Incumbent: inc})
			return p
		}
		_ = rng
		with, err := build().Solve()
		if err != nil {
			t.Fatalf("seed %d: with fixing: %v", seed, err)
		}
		ref := plainTree(t, build())
		if with.Status != ref.Status {
			t.Fatalf("seed %d: status %v (fixing) vs %v (plain)", seed, with.Status, ref.Status)
		}
		if with.Status == lp.Optimal && math.Abs(with.Objective-ref.Objective) > 1e-6 {
			t.Fatalf("seed %d: fixing changed the optimum: %g vs %g", seed, with.Objective, ref.Objective)
		}
		if with.VarsFixed > 0 {
			engaged++
		}
	}
	if engaged == 0 {
		t.Fatal("reduced-cost fixing never engaged across the whole suite")
	}
}

// TestPresolveCountersSurface checks that an instance presolve can
// shrink reports the removal and still restores the full solution.
func TestPresolveCountersSurface(t *testing.T) {
	p := NewProblem(lp.Minimize)
	a := p.AddBinaryVariable("a", 1)
	b := p.AddBinaryVariable("b", 2)
	fixed := p.AddBinaryVariable("f", 5)
	p.FixVariable(fixed, 1)
	p.AddVariable("empty", 0, 4, 3) // appears in no row: fixed at 0
	p.AddConstraint(lp.GE, 1, lp.Term{Var: a, Coef: 1}, lp.Term{Var: b, Coef: 1})
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal || !almostEq(s.Objective, 6, 1e-9) { // a=1 + fixed=1·5
		t.Fatalf("status=%v obj=%g, want optimal 6", s.Status, s.Objective)
	}
	if s.PresolveRemoved == 0 {
		t.Fatalf("presolve removed nothing: %+v", s)
	}
	if len(s.X) != 4 || !almostEq(s.X[2], 1, 1e-9) || !almostEq(s.X[3], 0, 1e-9) {
		t.Fatalf("postsolve vector wrong: %v", s.X)
	}
}

// TestRelativeGapPruning is the regression test of the RelGap option:
// on a large-objective instance an absolute-only gap keeps proving to
// optimality, while a relative gap prunes once the incumbent is within
// RelGap·|incumbent| and reports the slackened bound.
func TestRelativeGapPruning(t *testing.T) {
	build := func(opts Options) *Problem {
		rng := rand.New(rand.NewSource(11))
		p := NewProblem(lp.Maximize)
		terms := make([]lp.Term, 20)
		for i := range terms {
			v := p.AddBinaryVariable("x", 1e6*(1+rng.Float64()))
			terms[i] = lp.Term{Var: v, Coef: 1 + rng.Float64()*3}
		}
		p.AddConstraint(lp.LE, 18, terms...)
		p.SetOptions(opts)
		return p
	}
	exact, err := build(Options{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if exact.Status != lp.Optimal {
		t.Fatalf("exact solve: %v", exact.Status)
	}
	rel, err := build(Options{RelGap: 1e-3}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Status != lp.Optimal {
		t.Fatalf("relgap solve: %v", rel.Status)
	}
	// The returned incumbent must be within the relative gap of the
	// true optimum…
	if rel.Objective < exact.Objective*(1-1e-3)-1e-6 {
		t.Fatalf("relgap solution %g below tolerance of optimum %g", rel.Objective, exact.Objective)
	}
	// …and the proven bound must reflect the slack instead of claiming
	// exact optimality.
	wantBound := rel.Objective + 1e-9 + 1e-3*math.Abs(rel.Objective)
	if math.Abs(rel.Bound-wantBound) > 1e-6*math.Abs(wantBound) {
		t.Fatalf("relgap bound %g, want %g", rel.Bound, wantBound)
	}
	// The relative gap must actually prune: same instance, fewer or
	// equal nodes (strictly fewer would be flaky to assert on every
	// machine, but it must never explore more).
	if rel.Nodes > exact.Nodes {
		t.Fatalf("relgap explored more nodes (%d) than the exact solve (%d)", rel.Nodes, exact.Nodes)
	}
}

// TestNodeQueuePopReleasesSlot guards the fix for the completed-node
// retention leak: Pop must nil the vacated backing-array slot so the
// queue does not keep dead nodes (and their delta chains and basis
// snapshots) alive for the rest of the search.
func TestNodeQueuePopReleasesSlot(t *testing.T) {
	q := &nodeQueue{}
	for i := 0; i < 4; i++ {
		q.Push(&node{relax: float64(i)})
	}
	it := q.Pop()
	if it == nil {
		t.Fatal("Pop returned nil node")
	}
	backing := q.items[:cap(q.items)]
	if backing[len(q.items)] != nil {
		t.Fatal("Pop left the vacated slot populated; completed nodes stay reachable")
	}
}

// TestStrengthenedCountersFlow checks the new counters reach the
// Solution: presolve removals on a reducible instance, and lazy
// strong-branching probes once some tree in a random family exceeds
// the trigger.
func TestStrengthenedCountersFlow(t *testing.T) {
	build := func(seed int64, n int) *Problem {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem(lp.Minimize)
		vars := make([]lp.Var, n)
		for j := range vars {
			vars[j] = p.AddBinaryVariable("x", 1+rng.Float64())
		}
		for i := 0; i < 3*n; i++ {
			var terms []lp.Term
			for j := range vars {
				if rng.Intn(4) == 0 {
					terms = append(terms, lp.Term{Var: vars[j], Coef: 1})
				}
			}
			if len(terms) < 2 {
				continue
			}
			p.AddConstraint(lp.GE, 1, terms...)
		}
		return p
	}
	s, err := build(23, 24).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if s.PresolveRemoved == 0 {
		t.Fatalf("presolve removed nothing on a reducible covering instance: %+v", s)
	}
	ps := plainTree(t, build(23, 24))
	if !almostEq(s.Objective, ps.Objective, 1e-6) {
		t.Fatalf("objectives differ: %g vs plain %g", s.Objective, ps.Objective)
	}
	// Find an instance whose strengthened tree passes the lazy trigger
	// and confirm the probes fired and were counted.
	for seed := int64(0); seed < 80; seed++ {
		s, err := build(seed, 34).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Nodes > strongBranchTrigger+1 {
			if s.StrongBranches == 0 {
				t.Fatalf("seed %d: %d-node tree never strong-branched: %+v", seed, s.Nodes, s)
			}
			return
		}
	}
	t.Skip("no instance in the family exceeded the strong-branch trigger")
}
