package mip

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/scenario"
)

// buildLP2 constructs the paper's Linear program 2 (PPM(k), §4.3) from
// a routed instance: binary x_e per link, continuous δ_t per traffic,
// Σ_{e∈p_t} x_e ≥ δ_t, Σ v_t·δ_t ≥ k·V, minimizing Σ x_e. It mirrors
// internal/passive's formulation without the warm-start incumbent, so
// the tree search is exercised from a cold start.
func buildLP2(in *core.Instance, k float64) *Problem {
	p := NewProblem(lp.Minimize)
	m := in.G.NumEdges()
	xs := make([]lp.Var, m)
	for e := 0; e < m; e++ {
		xs[e] = p.AddBinaryVariable(fmt.Sprintf("x%d", e), 1)
	}
	ds := make([]lp.Var, len(in.Traffics))
	for ti := range in.Traffics {
		ds[ti] = p.AddVariable(fmt.Sprintf("d%d", ti), 0, 1, 0)
	}
	for ti, t := range in.Traffics {
		terms := make([]lp.Term, 0, t.Path.Len()+1)
		for _, e := range t.Path.Edges {
			terms = append(terms, lp.Term{Var: xs[e], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: ds[ti], Coef: -1})
		p.AddConstraint(lp.GE, 0, terms...)
	}
	cov := make([]lp.Term, len(in.Traffics))
	for ti, t := range in.Traffics {
		cov[ti] = lp.Term{Var: ds[ti], Coef: t.Volume}
	}
	p.AddConstraint(lp.GE, k*in.TotalVolume(), cov...)
	return p
}

// TestStrengthenedMatchesPlainTreeOnScenarioMIPs extends the PR 4
// oracle suite beyond figure-shaped instances: on small MIPs built
// from every scenario family, the default root-strengthened pipeline
// (presolve + cuts + reduced-cost fixing + pseudo-cost branching) must
// agree with the plainTree reference on the optimal objective, and
// its solution must be full-length and feasible in the caller's
// variable space.
func TestStrengthenedMatchesPlainTreeOnScenarioMIPs(t *testing.T) {
	seedsPerFamily := int64(5)
	if testing.Short() {
		seedsPerFamily = 2
	}
	for _, fam := range scenario.Families() {
		f, err := scenario.Lookup(fam)
		if err != nil {
			t.Fatal(err)
		}
		size := f.MinSize + 2
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			s, err := scenario.Generate(fam, size, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, seed, err)
			}
			in, err := s.Instance()
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, seed, err)
			}
			for _, k := range []float64{0.8, 1} {
				strong := buildLP2(in, k)
				ss, err := strong.Solve()
				if err != nil {
					t.Fatalf("%s/%d k=%g strengthened: %v", fam, seed, k, err)
				}
				ps := plainTree(t, buildLP2(in, k))
				if ss.Status != lp.Optimal || ps.Status != lp.Optimal {
					t.Fatalf("%s/%d k=%g: status strengthened=%v plain=%v", fam, seed, k, ss.Status, ps.Status)
				}
				if math.Abs(ss.Objective-ps.Objective) > 1e-6 {
					t.Fatalf("%s/%d k=%g: strengthened %g ≠ plain %g", fam, seed, k, ss.Objective, ps.Objective)
				}
				if len(ss.X) != strong.NumVariables() {
					t.Fatalf("%s/%d k=%g: postsolve returned %d values for %d variables", fam, seed, k, len(ss.X), strong.NumVariables())
				}
				// The strengthened solution must evaluate feasible (and to
				// its own objective) on a fresh, untouched copy of the
				// problem.
				check := buildLP2(in, k)
				obj, feas := check.lp.Evaluate(ss.X)
				if !feas {
					t.Fatalf("%s/%d k=%g: strengthened solution infeasible on the original problem", fam, seed, k)
				}
				if math.Abs(obj-ss.Objective) > 1e-6 {
					t.Fatalf("%s/%d k=%g: solution evaluates to %g, solver reported %g", fam, seed, k, obj, ss.Objective)
				}
			}
		}
	}
}
