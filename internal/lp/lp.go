// Package lp implements a self-contained linear-programming solver: a
// sparse revised simplex. The constraint matrix is stored column-major
// in compressed sparse form, the basis inverse is maintained as a sparse
// LU factorization (triangular peeling plus a dense bump, see lu.go)
// with a product-form eta file (periodically refactorized), pricing is
// Devex with a Bland anti-cycling fallback, and warm starts from a saved
// Basis restore feasibility with a bounded dual simplex. Optimal solves
// can expose row duals and reduced costs (SetExtractDuals) for the MIP
// layer's reduced-cost fixing. The tests check it against a dense
// two-phase tableau simplex kept in dense_test.go.
//
// The paper solves its placement formulations with CPLEX; this package is
// the from-scratch substitute (see DESIGN.md §4). Every solve is
// deterministic and reproducible.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
)

// Sense is the optimization direction.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is a ≤ constraint.
	LE Rel = iota
	// EQ is an = constraint.
	EQ
	// GE is a ≥ constraint.
	GE
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can improve without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
	// Canceled means the solve was interrupted by its context before
	// reaching a proven outcome.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Var identifies a decision variable within a Problem.
type Var int

// Term is one coefficient of a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Inf is the bound used for unbounded-above variables.
var Inf = math.Inf(1)

// Problem is a linear program under construction. Create one with
// NewProblem, add variables and constraints, then call Solve.
//
// A Problem keeps the simplex workspace of its last solve (the
// standard-form matrix, the LU and scratch buffers, and the factor of
// the last warm-start seed) and reuses it until a variable or
// constraint is added or removed; SetBounds keeps it. Solves of one
// Problem must therefore not run concurrently.
type Problem struct {
	sense        Sense
	names        []string
	lower        []float64
	upper        []float64
	cost         []float64
	rows         []row
	extractDuals bool

	ws *revised // nil until the first solve after a shape change
}

type row struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVariable adds a decision variable with bounds [lower, upper] and the
// given objective coefficient, returning its handle. lower must be finite
// and not exceed upper; upper may be lp.Inf.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) Var {
	if math.IsInf(lower, 0) || math.IsNaN(lower) {
		panic(fmt.Sprintf("lp: variable %q has non-finite lower bound %g", name, lower))
	}
	if lower > upper {
		panic(fmt.Sprintf("lp: variable %q has empty bound range [%g,%g]", name, lower, upper))
	}
	p.ws = nil
	p.names = append(p.names, name)
	p.lower = append(p.lower, lower)
	p.upper = append(p.upper, upper)
	p.cost = append(p.cost, cost)
	return Var(len(p.names) - 1)
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// VarName returns the name given to v at creation.
func (p *Problem) VarName(v Var) string { return p.names[v] }

// Bounds returns the bounds of v.
func (p *Problem) Bounds(v Var) (lower, upper float64) { return p.lower[v], p.upper[v] }

// SetBounds replaces the bounds of v. It is used by the branch-and-bound
// MIP solver to fix or restrict integer variables between solves.
func (p *Problem) SetBounds(v Var, lower, upper float64) {
	if math.IsInf(lower, 0) || math.IsNaN(lower) || lower > upper {
		panic(fmt.Sprintf("lp: bad bounds [%g,%g] for %q", lower, upper, p.names[v]))
	}
	p.lower[v] = lower
	p.upper[v] = upper
}

// Cost returns the objective coefficient of v.
func (p *Problem) Cost(v Var) float64 { return p.cost[v] }

// Sense returns the optimization direction the problem was created with.
func (p *Problem) Sense() Sense { return p.sense }

// ConstraintRow returns constraint i as (relation, rhs, terms). The
// returned term slice is the problem's own storage and must not be
// modified; duplicate variables may appear and are additive. It exists
// so the MIP layer can presolve and separate cutting planes without a
// private copy of the model.
func (p *Problem) ConstraintRow(i int) (Rel, float64, []Term) {
	r := p.rows[i]
	return r.rel, r.rhs, r.terms
}

// TruncateConstraints drops every constraint with index >= n. The MIP
// root-strengthening loop uses it to roll back cutting planes whose
// re-solve ran into trouble; n must not exceed NumConstraints.
func (p *Problem) TruncateConstraints(n int) {
	if n < 0 || n > len(p.rows) {
		panic(fmt.Sprintf("lp: truncate to %d of %d rows", n, len(p.rows)))
	}
	p.ws = nil
	p.rows = p.rows[:n]
}

// SetExtractDuals toggles extraction of row duals and structural
// reduced costs into Solution.Duals / Solution.ReducedCosts on optimal
// solves. It is off by default: the branch-and-bound MIP only needs
// them at the root, and extraction costs one extra BTRAN plus a pass
// over the matrix per solve.
func (p *Problem) SetExtractDuals(on bool) { p.extractDuals = on }

// AddConstraint adds the linear constraint Σ terms rel rhs. Terms
// referencing the same variable are accumulated.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.ws = nil
	p.rows = append(p.rows, row{terms: cp, rel: rel, rhs: rhs})
}

// workspace returns p's simplex workspace reset for a new solve,
// building it first when p has none for its current shape.
func (p *Problem) workspace() *revised {
	if p.ws == nil {
		p.ws = newRevised(p)
	} else {
		p.ws.reset(p)
	}
	return p.ws
}

// Solution is the result of a successful or failed solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds one value per variable, indexed by Var. It is nil unless
	// Status is Optimal.
	X []float64
	// Iterations is the total simplex iterations over both phases
	// (primal and, on warm starts, dual).
	Iterations int
	// Refactorizations counts the basis LU factorizations this solve
	// computed. A warm start that reuses the factor the previous seed
	// of the same Basis computed does not count it.
	Refactorizations int
	// DevexResets counts Devex reference-framework resets.
	DevexResets int
	// Warm reports that the solve completed on the warm-started path:
	// dual-simplex restoration from a seeded basis, no phase 1. A warm
	// Infeasible is backed by a Farkas certificate checked against the
	// rows and bounds; an infeasibility claim that fails the check is
	// re-solved cold, and Warm is then false.
	Warm bool
	// Duals holds one dual multiplier per constraint row and
	// ReducedCosts one reduced cost per structural variable, both in the
	// problem's own sense (for Maximize they are the negated
	// minimization-form values). They are filled only on Optimal solves
	// with SetExtractDuals(true). The branch-and-bound MIP reads them at
	// the root for reduced-cost variable fixing.
	Duals        []float64
	ReducedCosts []float64

	basis *Basis
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// Basis returns a snapshot of the optimal basis, or nil when the solve
// did not end Optimal. The snapshot can seed a later solve of the same
// problem shape via SolveContextFrom — the branch-and-bound MIP
// warm-starts child nodes this way.
func (s *Solution) Basis() *Basis { return s.basis }

// Basis is an opaque snapshot of a simplex basis: which standard-form
// column is basic in each row and the bound status of every column. It
// is only meaningful for a Problem with the same variables and
// constraints (bounds may differ).
type Basis struct {
	cols   []int
	status []colStatus
	m, n   int
}

// ErrNoVariables is returned when Solve is called on an empty problem.
var ErrNoVariables = errors.New("lp: problem has no variables")

// Evaluate returns the objective value of x and whether x satisfies all
// constraints and bounds within tolerance. It is used by branch-and-bound
// warm starts to validate caller-provided incumbents.
func (p *Problem) Evaluate(x []float64) (objective float64, feasible bool) {
	if len(x) != len(p.names) {
		return 0, false
	}
	for j := range x {
		if x[j] < p.lower[j]-epsFeas || x[j] > p.upper[j]+epsFeas {
			return 0, false
		}
		objective += p.cost[j] * x[j]
	}
	for _, r := range p.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch r.rel {
		case LE:
			if lhs > r.rhs+epsRow {
				return 0, false
			}
		case GE:
			if lhs < r.rhs-epsRow {
				return 0, false
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > epsRow {
				return 0, false
			}
		}
	}
	return objective, true
}

// Solve runs the two-phase simplex and returns the solution. The
// model is not modified and may be solved again (e.g. after
// SetBounds); the solve updates only p's workspace, so solves of one
// Problem must not run concurrently.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveContext(context.Background())
}

// SolveContext is Solve under a context: the pivot loop polls ctx and
// returns a Canceled solution when it fires, so long simplex runs can be
// deadline-bounded by callers (the branch-and-bound MIP in particular).
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	return p.SolveContextFrom(ctx, nil)
}

// SolveContextFrom is SolveContext warm-started from a saved Basis. A
// nil (or shape-mismatched) basis solves cold. A usable basis skips
// phase 1: primal feasibility is restored with a bounded dual simplex
// (the seed is dual feasible when it comes from an optimal solve of the
// same problem with different bounds, the branch-and-bound case) and the
// solve falls back to a cold start whenever the warm path runs into
// numerical trouble or claims infeasibility without a certificate.
func (p *Problem) SolveContextFrom(ctx context.Context, basis *Basis) (*Solution, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVariables
	}
	var spentIters, spentFactors, spentResets int
	if basis != nil {
		// Inject point: a numerically unusable factorization of the warm
		// basis. Firing discards the basis, forcing the very cold-start
		// fallback a real singular seed would take — same answer, colder
		// clock — so chaos runs exercise the fallback without fabricating
		// wrong numerics.
		if fault.Hit(fault.PointLPFactor).Fire {
			basis = nil
		}
	}
	if basis != nil {
		sol, ok := p.solveRevised(ctx, basis)
		if ok {
			sol.Warm = true
			return sol, nil
		}
		// Warm start failed (singular seed, numerical trouble, or an
		// unverified infeasibility claim): solve cold, but keep the
		// attempt's effort in the counters so callers account for it.
		if sol != nil {
			spentIters, spentFactors, spentResets = sol.Iterations, sol.Refactorizations, sol.DevexResets
		}
	}
	sol, _ := p.solveRevised(ctx, nil)
	sol.Iterations += spentIters
	sol.Refactorizations += spentFactors
	sol.DevexResets += spentResets
	return sol, nil
}
