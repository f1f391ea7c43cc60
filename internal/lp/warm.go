package lp

import (
	"context"
	"math"
)

// This file drives the sparse revised simplex: the cold two-phase path
// and the warm path that seeds a saved Basis and restores primal
// feasibility with a bounded dual simplex. The branch-and-bound MIP
// re-solves a child node after tightening one variable's bounds; the
// parent's optimal basis stays dual feasible under that change, so a
// few dual pivots typically replace a full phase 1.

// solveRevised runs the revised simplex on p's workspace, warm-started
// from seed when possible. The second return value is false when the
// warm path could not produce a trustworthy answer (singular seed basis,
// numerical trouble, an iteration-capped dual restoration, or an
// infeasibility claim its Farkas check did not certify); the caller then
// re-solves cold.
func (p *Problem) solveRevised(ctx context.Context, seed *Basis) (*Solution, bool) {
	rv := p.workspace()
	rv.ctx = ctx

	if seed != nil {
		if !rv.seedBasis(seed) {
			return nil, false
		}
		return rv.finishWarm(p)
	}

	st := rv.phase1()
	if st == Optimal {
		st = rv.phase2()
	}
	if st != Optimal {
		return rv.failed(st), true
	}
	return rv.optimalSolution(p, true), true
}

// failed packages a non-optimal outcome.
func (rv *revised) failed(st Status) *Solution {
	return &Solution{Status: st, Iterations: rv.iters, Refactorizations: rv.factors, DevexResets: rv.resets}
}

// optimalSolution extracts x, computes the user-sense objective, and
// attaches the basis snapshot.
func (rv *revised) optimalSolution(p *Problem, snap bool) *Solution {
	x := rv.extract()
	obj := 0.0
	for j, c := range p.cost {
		obj += c * x[j]
	}
	sol := &Solution{
		Status:           Optimal,
		Objective:        obj,
		X:                x,
		Iterations:       rv.iters,
		Refactorizations: rv.factors,
		DevexResets:      rv.resets,
	}
	if snap {
		sol.basis = rv.snapshot()
	}
	if p.extractDuals {
		sol.Duals, sol.ReducedCosts = rv.extractDuals(p)
	}
	return sol
}

// extractDuals recomputes y = c_B·B⁻¹ and the structural reduced costs
// d_j = c_j − y·a_j from the final basis, converted into the problem's
// own sense. A fresh BTRAN (rather than the incrementally maintained
// rv.dj) keeps the values drift-free: reduced-cost fixing prunes
// variables permanently, so it must not act on stale numbers.
func (rv *revised) extractDuals(p *Problem) (duals, reduced []float64) {
	y := make([]float64, rv.m)
	for i := range y {
		y[i] = rv.cost[rv.basis[i]]
	}
	rv.btran(y)
	dj := make([]float64, rv.nStruct)
	for j := 0; j < rv.nStruct; j++ {
		d := rv.cost[j]
		rows, vals := rv.cols.col(j)
		for t, i := range rows {
			if !StructZero(y[i]) {
				d -= y[i] * vals[t]
			}
		}
		dj[j] = d
	}
	if p.sense == Maximize {
		for i := range y {
			y[i] = -y[i]
		}
		for j := range dj {
			dj[j] = -dj[j]
		}
	}
	return y, dj
}

// seedBasis installs a saved basis: statuses are sanitized against the
// current bounds, artificials are locked at zero (a warm solve never
// reruns phase 1), the basis is factored (see seedFactor), and the
// basic values are recomputed as x_B = B⁻¹(b − N·x_N). Returns false
// when the snapshot does not fit this problem or the seeded basis is
// singular.
func (rv *revised) seedBasis(seed *Basis) bool {
	if seed.m != rv.m || seed.n != rv.n {
		return false
	}
	for j := 0; j < rv.n; j++ {
		st := seed.status[j]
		if st == atUpper && math.IsInf(rv.upper[j], 1) {
			st = atLower
		}
		rv.status[j] = st
	}
	for i, j := range seed.cols {
		if j < 0 || j >= rv.n {
			return false
		}
		rv.basis[i] = j
		rv.status[j] = basic
	}
	rv.lockArtificials()
	if !rv.seedFactor(seed) {
		return false
	}
	x := rv.sAlpha
	copy(x, rv.rhs)
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == basic {
			continue
		}
		if xj := rv.nonbasicValue(j); !StructZero(xj) {
			rows, vals := rv.cols.col(j)
			for t, i := range rows {
				x[i] -= vals[t] * xj
			}
		}
	}
	rv.ftran(x)
	copy(rv.xB, x)
	return true
}

// seedFactor points rv.lu at an LU of the seeded basis. The seed slot
// keeps the factor of the last seeded Basis: a seed with the same
// pointer whose basic artificials kept their signs has the same basis
// matrix, since the workspace's other columns never change, so it
// reuses that factor, and the reuse is not counted in Refactorizations.
// Any other seed is factored into the slot.
func (rv *revised) seedFactor(seed *Basis) bool {
	rv.lu = &rv.seedLU
	rv.etas = rv.etas[:0]
	rv.djOK = false
	if seed == rv.seed && rv.sameArtificialSigns() {
		return true
	}
	rv.seed = nil
	if !rv.seedLU.factor(&rv.cols, rv.basis) {
		return false
	}
	for k := range rv.basis {
		rv.seedNeg[k] = rv.negArtificial(k)
	}
	rv.seed = seed
	rv.factors++
	return true
}

// sameArtificialSigns reports whether every artificial basic in the
// seed slot's basis still has the sign it had when the slot was filled.
func (rv *revised) sameArtificialSigns() bool {
	for k := range rv.basis {
		if rv.negArtificial(k) != rv.seedNeg[k] {
			return false
		}
	}
	return true
}

// negArtificial reports whether basis slot k holds an artificial column
// with coefficient −1.
func (rv *revised) negArtificial(k int) bool {
	j := rv.basis[k]
	return j >= rv.artBase && rv.cols.val[rv.cols.colPtr[j]] < 0
}

// finishWarm restores primal feasibility with the dual simplex when
// needed, then runs the primal phase 2 as cleanup (it terminates
// immediately when the dual pass already reached optimality).
func (rv *revised) finishWarm(p *Problem) (*Solution, bool) {
	if !rv.primalFeasible() {
		switch st := rv.dualSimplex(); st {
		case Canceled:
			return rv.failed(Canceled), true
		case Infeasible:
			// dualSimplex left ρ = e_r·B⁻¹ of the row it could not
			// repair in rv.sRho. An infeasibility claim its Farkas check
			// does not certify is re-verified by a cold solve.
			return rv.failed(Infeasible), farkasCertified(p, rv.sRho)
		case IterLimit:
			// A capped dual restoration also falls back to a cold solve.
			// The spent effort is returned so the caller can account
			// for it.
			return rv.failed(st), false
		}
	}
	st := rv.phase2()
	switch st {
	case Optimal:
		sol := rv.optimalSolution(p, true)
		if _, feas := p.Evaluate(sol.X); !feas {
			return sol, false // drifted: re-solve cold
		}
		return sol, true
	case Unbounded:
		// A primal-feasible basis with an unbounded ray is a sound
		// unboundedness proof even from a warm start.
		return rv.failed(Unbounded), true
	default:
		return rv.failed(st), true
	}
}

// primalFeasible reports whether every basic value is inside its bounds.
func (rv *revised) primalFeasible() bool {
	for i, k := range rv.basis {
		if rv.xB[i] < rv.lower[k]-epsFeas || rv.xB[i] > rv.upper[k]+epsFeas {
			return false
		}
	}
	return true
}

// dualSimplex drives the most-violated basic variable to its bound each
// iteration, choosing the entering column by the bounded dual ratio
// test (so dual feasibility — the primal optimality condition — is
// preserved). It stops Optimal when primal feasible, Infeasible when a
// violated row r has no eligible column (leaving ρ = e_r·B⁻¹ in
// rv.sRho), IterLimit when capped.
func (rv *revised) dualSimplex() Status {
	rv.computeDj(rv.cost)
	capIters := 5*rv.m + 100
	for d := 0; ; d++ {
		if d >= capIters || rv.iters >= rv.maxIter {
			return IterLimit
		}
		if rv.iters&63 == 0 && rv.ctx != nil && rv.ctx.Err() != nil {
			return Canceled
		}

		// Leaving row: the basic variable farthest outside its bounds.
		r, sigma, worst := -1, 0.0, epsFeas
		for i := 0; i < rv.m; i++ {
			k := rv.basis[i]
			if v := rv.lower[k] - rv.xB[i]; v > worst {
				r, sigma, worst = i, -1, v
			}
			if !math.IsInf(rv.upper[k], 1) {
				if v := rv.xB[i] - rv.upper[k]; v > worst {
					r, sigma, worst = i, +1, v
				}
			}
		}
		if r < 0 {
			return Optimal
		}
		rv.iters++
		if !rv.djOK {
			rv.computeDj(rv.cost)
		}

		// Entering column: minimum dual ratio |d_j|/|α_rj| among columns
		// whose movement pushes x_B[r] toward the violated bound.
		arj := rv.computePivotRow(r)
		enter, dir := -1, 0
		bestRatio, bestPiv := math.Inf(1), 0.0
		for j := 0; j < rv.n; j++ {
			if rv.status[j] == basic || rv.upper[j]-rv.lower[j] <= epsFeas {
				continue
			}
			dj := +1
			if rv.status[j] == atUpper {
				dj = -1
			}
			a := arj[j]
			if float64(dj)*a*sigma <= epsPiv {
				continue
			}
			ratio := math.Abs(rv.dj[j]) / math.Abs(a)
			take := enter < 0 || ratio < bestRatio-epsCost ||
				(ratio <= bestRatio+epsCost && math.Abs(a) > bestPiv)
			if take {
				if ratio < bestRatio {
					bestRatio = ratio
				}
				enter, dir, bestPiv = j, dj, math.Abs(a)
			}
		}
		if enter < 0 {
			return Infeasible
		}

		alpha := rv.sAlpha
		rv.loadColumn(enter, alpha)
		rv.ftran(alpha)
		if math.Abs(alpha[r]) <= epsPiv {
			if !rv.refactorize() {
				return IterLimit
			}
			rv.computeDj(rv.cost)
			continue
		}
		k := rv.basis[r]
		beta, leaveTo := rv.lower[k], atLower
		if sigma > 0 {
			beta, leaveTo = rv.upper[k], atUpper
		}
		step := (rv.xB[r] - beta) / (float64(dir) * alpha[r])
		if step < 0 {
			step = 0
		}
		if !rv.applyPivot(r, enter, step, dir, alpha, leaveTo, arj) {
			return IterLimit
		}
	}
}

// farkasCertified reports whether rho proves that no x within p's
// current bounds satisfies p's rows. With its slack (in [0, ∞),
// coefficient +1 on a ≤ row and −1 on a ≥ row, none on an = row) every
// row reads a_i·x + s_i = b_i, so every solution has y·(x, s) = ρ·b for
// y = ρ·A over the structural and slack columns. When ρ·b lies outside
// the range of y·(x, s) over the bounds, the rows have no solution.
//
// Entries of rho at most farkasDrop·max|ρ| count as zero: without that,
// BTRAN noise of ~1e-14 on a row with an unbounded slack makes the
// range unbounded. The margin, farkasMargin·max|ρ|·epsArt plus
// farkasRel of the summed magnitudes |ρ_i·b_i| and |y_j·bound|, is
// wider than phase 1's epsArt acceptance: every point within the
// bounds then misses the rows by more than epsArt in ℓ1 norm, so a cold
// solve would report Infeasible too. The check reads p's rows and
// bounds and nothing of the simplex state but rho.
func farkasCertified(p *Problem, rho []float64) bool {
	maxRho := 0.0
	for _, v := range rho {
		maxRho = math.Max(maxRho, math.Abs(v))
	}
	drop := farkasDrop * maxRho
	y := make([]float64, len(p.names))
	var rb, mag, lo, hi float64
	for i, r := range p.rows {
		ri := rho[i]
		if math.Abs(ri) <= drop {
			continue
		}
		rb += ri * r.rhs
		mag += math.Abs(ri * r.rhs)
		for _, t := range r.terms {
			y[t.Var] += ri * t.Coef
		}
		slack := 0.0
		switch r.rel {
		case LE:
			slack = ri
		case GE:
			slack = -ri
		}
		if slack > 0 {
			hi = Inf
		} else if slack < 0 {
			lo = -Inf
		}
	}
	for j, yj := range y {
		if StructZero(yj) {
			continue
		}
		a, b := yj*p.lower[j], yj*p.upper[j]
		mag += math.Abs(a)
		if !math.IsInf(b, 0) {
			mag += math.Abs(b)
		}
		if a > b {
			a, b = b, a
		}
		lo += a
		hi += b
	}
	margin := farkasMargin*maxRho*epsArt + farkasRel*mag
	return rb > hi+margin || rb < lo-margin
}
