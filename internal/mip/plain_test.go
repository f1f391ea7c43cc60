package mip

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// This file holds the reference the branch-and-bound solver is tested
// against. It reads the model (the lp.Problem and the integrality marks)
// and solves LPs through internal/lp; it shares no code with the
// solver's presolve, cuts, fixing, warm starts or branching.

// plainResult is the outcome of plainTree.
type plainResult struct {
	Status    lp.Status // Optimal, Infeasible or Unbounded
	Objective float64   // the optimum when Status is Optimal
	Nodes     int       // LP relaxations solved
}

// plainTree is a naive depth-first branch and bound: every node's LP is
// solved cold on p's own relaxation, branching takes the most
// fractional integer variable (lowest index on ties), floor side first,
// and a node is pruned when its relaxation cannot beat the incumbent by
// more than 1e-9. p's bounds are restored before it returns. An LP that
// ends neither Optimal nor Infeasible below the root fails the test:
// the reference must not guess.
func plainTree(t *testing.T, p *Problem) plainResult {
	t.Helper()
	sign := 1.0 // objective values are compared in minimization form
	if p.sense == lp.Maximize {
		sign = -1
	}
	res := plainResult{Status: lp.Infeasible}
	best := math.Inf(1)
	var dive func(root bool)
	dive = func(root bool) {
		res.Nodes++
		sol, err := p.lp.Solve()
		if err != nil {
			t.Fatalf("plainTree: %v", err)
		}
		switch {
		case sol.Status == lp.Infeasible:
			return
		case sol.Status == lp.Unbounded && root:
			res.Status = lp.Unbounded
			return
		case sol.Status != lp.Optimal:
			t.Fatalf("plainTree: node LP ended %v", sol.Status)
		}
		obj := sign * sol.Objective
		if res.Status == lp.Optimal && obj >= best-1e-9 {
			return
		}
		j, frac := -1, intTol
		for v, isInt := range p.integer {
			f := sol.X[v] - math.Floor(sol.X[v])
			if d := math.Min(f, 1-f); isInt && d > frac {
				j, frac = v, d
			}
		}
		if j < 0 {
			res.Status, best = lp.Optimal, obj
			return
		}
		v := lp.Var(j)
		lo, hi := p.lp.Bounds(v)
		if dn := math.Floor(sol.X[j]); dn >= lo {
			p.lp.SetBounds(v, lo, dn)
			dive(false)
		}
		if up := math.Ceil(sol.X[j]); up <= hi {
			p.lp.SetBounds(v, up, hi)
			dive(false)
		}
		p.lp.SetBounds(v, lo, hi)
	}
	dive(true)
	if res.Status == lp.Optimal {
		res.Objective = sign * best
	}
	return res
}
