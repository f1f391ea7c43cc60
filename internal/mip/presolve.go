package mip

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
)

// This file implements the presolve pass of the root-strengthened
// pipeline: before the root LP ever runs, fixed and empty columns are
// removed, singleton rows become bounds, dominated and duplicate rows
// are dropped, integer bounds are rounded, and row-activity arguments
// tighten binary bounds. A postsolve map restores the original variable
// space, so every caller sees full-length solution vectors regardless
// of how much was removed.

const (
	epsPre = 1e-9
	// preMaxPasses bounds the fixpoint iteration.
	preMaxPasses = 8
	// preDomRowCap disables the O(m²) row-domination pass on very wide
	// models; everything else in presolve is near-linear.
	preDomRowCap = 3000
)

// prow is a normalized constraint: GE rows are negated into LE, terms
// are accumulated per variable, and substituted (fixed) variables fold
// into rhs.
type prow struct {
	vars  []int
	coefs []float64
	rel   lp.Rel // LE or EQ
	rhs   float64
	dead  bool
}

// presolveState maps between the caller's variable space and the
// reduced problem solved by the strengthened tree.
type presolveState struct {
	origVars   int
	keep       []int     // reduced index → original variable
	mapTo      []int     // original variable → reduced index, -1 if removed
	fixedVal   []float64 // value of removed variables
	constant   float64   // objective contribution of removed variables
	removed    int       // columns + rows removed
	infeasible bool
	unbounded  bool
	red        *Problem
}

// restore expands a reduced-space solution vector into the original
// variable space (xRed may be nil only when no variables were kept).
func (ps *presolveState) restore(xRed []float64) []float64 {
	full := make([]float64, ps.origVars)
	for j := range full {
		if k := ps.mapTo[j]; k >= 0 {
			full[j] = xRed[k]
		} else {
			full[j] = ps.fixedVal[j]
		}
	}
	return full
}

// project maps an original-space point onto the kept variables (used to
// translate warm-start incumbents; feasibility is re-validated by the
// tree, so optimality-based presolve fixes can only drop, not corrupt,
// a warm start).
func (ps *presolveState) project(x []float64) []float64 {
	out := make([]float64, len(ps.keep))
	for k, j := range ps.keep {
		out[k] = x[j]
	}
	return out
}

// normalizeRows converts the first nRows constraints of p.lp into prow
// form: per-variable accumulated coefficients, GE negated into LE.
func normalizeRows(p *Problem, nRows int) []*prow {
	n := p.lp.NumVariables()
	idx := make([]int, n)
	for j := range idx {
		idx[j] = -1
	}
	rows := make([]*prow, 0, nRows)
	for i := 0; i < nRows; i++ {
		rel, rhs, terms := p.lp.ConstraintRow(i)
		r := &prow{rel: rel, rhs: rhs}
		for _, t := range terms {
			j := int(t.Var)
			if k := idx[j]; k >= 0 {
				r.coefs[k] += t.Coef
			} else {
				idx[j] = len(r.vars)
				r.vars = append(r.vars, j)
				r.coefs = append(r.coefs, t.Coef)
			}
		}
		for _, j := range r.vars {
			idx[j] = -1
		}
		// Drop exact zero coefficients produced by cancellation.
		w := 0
		for k := range r.vars {
			if !lp.StructZero(r.coefs[k]) {
				r.vars[w], r.coefs[w] = r.vars[k], r.coefs[k]
				w++
			}
		}
		r.vars, r.coefs = r.vars[:w], r.coefs[:w]
		if rel == lp.GE {
			r.rel = lp.LE
			r.rhs = -r.rhs
			for k := range r.coefs {
				r.coefs[k] = -r.coefs[k]
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// presolver is the working state of one presolve run.
type presolver struct {
	p        *Problem
	lo, hi   []float64
	fixed    []bool
	fixedVal []float64
	rows     []*prow
	colRows  [][]int32 // variable → indices of rows containing it
	st       *presolveState
	minCost  []float64 // sense-adjusted (minimization) objective costs
}

// presolveProblem reduces p behind a postsolve map. The reduced problem
// is always a fresh model, so cuts and fixing never touch the caller's
// Problem.
func presolveProblem(p *Problem) *presolveState {
	n := p.lp.NumVariables()
	ps := &presolveState{origVars: n}
	pr := &presolver{
		p:        p,
		lo:       make([]float64, n),
		hi:       make([]float64, n),
		fixed:    make([]bool, n),
		fixedVal: make([]float64, n),
		rows:     normalizeRows(p, p.lp.NumConstraints()),
		st:       ps,
		minCost:  make([]float64, n),
	}
	for j := 0; j < n; j++ {
		pr.lo[j], pr.hi[j] = p.lp.Bounds(lp.Var(j))
		c := p.lp.Cost(lp.Var(j))
		if p.sense == lp.Maximize {
			c = -c
		}
		pr.minCost[j] = c
	}
	pr.buildColRows()
	pr.run()
	if ps.infeasible || ps.unbounded {
		return ps
	}
	pr.build()
	return ps
}

func (pr *presolver) buildColRows() {
	pr.colRows = make([][]int32, len(pr.lo))
	for i, r := range pr.rows {
		for _, j := range r.vars {
			pr.colRows[j] = append(pr.colRows[j], int32(i))
		}
	}
}

// fix pins variable j to v and substitutes it out of every row.
func (pr *presolver) fix(j int, v float64) bool {
	if v < pr.lo[j]-1e-6 || v > pr.hi[j]+1e-6 {
		pr.st.infeasible = true
		return false
	}
	pr.fixed[j] = true
	pr.fixedVal[j] = v
	pr.lo[j], pr.hi[j] = v, v
	for _, ri := range pr.colRows[j] {
		r := pr.rows[ri]
		if r.dead {
			continue
		}
		for k, vj := range r.vars {
			if vj == j && !lp.StructZero(r.coefs[k]) {
				r.rhs -= r.coefs[k] * v
				r.coefs[k] = 0
			}
		}
	}
	return true
}

// roundIntBounds snaps integer variable bounds to integers; a crossed
// range is infeasible.
func (pr *presolver) roundIntBounds() bool {
	changed := false
	for j, isInt := range pr.p.integer {
		if !isInt || pr.fixed[j] {
			continue
		}
		nlo := math.Ceil(pr.lo[j] - 1e-9)
		nhi := pr.hi[j]
		if !math.IsInf(nhi, 1) {
			nhi = math.Floor(nhi + 1e-9)
		}
		if nlo > pr.lo[j]+epsPre || nhi < pr.hi[j]-epsPre {
			changed = true
		}
		pr.lo[j], pr.hi[j] = nlo, nhi
		if nlo > nhi+epsPre {
			pr.st.infeasible = true
			return changed
		}
	}
	return changed
}

// activity returns the minimum and maximum of Σ coefs·x over the live
// variables' boxes, together with the live variable count.
func (pr *presolver) activity(r *prow) (minAct, maxAct float64, live int) {
	for k, j := range r.vars {
		a := r.coefs[k]
		if lp.StructZero(a) || pr.fixed[j] {
			continue
		}
		live++
		if a > 0 {
			minAct += a * pr.lo[j]
			maxAct += a * pr.hi[j] // +inf propagates
		} else {
			minAct += a * pr.hi[j] // -inf propagates
			maxAct += a * pr.lo[j]
		}
	}
	return minAct, maxAct, live
}

// run iterates the reductions to a fixpoint (bounded by preMaxPasses).
func (pr *presolver) run() {
	if pr.roundIntBounds(); pr.st.infeasible {
		return
	}
	for pass := 0; pass < preMaxPasses; pass++ {
		changed := false
		// Detect newly fixed columns (bounds collapsed).
		for j := range pr.lo {
			if !pr.fixed[j] && pr.hi[j]-pr.lo[j] <= epsPre {
				if !pr.fix(j, pr.lo[j]) {
					return
				}
				changed = true
			}
		}
		for _, r := range pr.rows {
			if r.dead {
				continue
			}
			if pr.reduceRow(r) {
				changed = true
			}
			if pr.st.infeasible {
				return
			}
		}
		if pr.roundIntBounds() {
			changed = true
		}
		if pr.st.infeasible {
			return
		}
		if !changed {
			break
		}
	}
	pr.dropDuplicateRows()
	if pr.st.infeasible {
		return
	}
	pr.dropDominatedRows()
	pr.removeEmptyColumns()
}

// reduceRow applies empty/singleton/redundancy handling plus
// activity-based binary tightening to one row. It reports whether
// anything changed.
func (pr *presolver) reduceRow(r *prow) bool {
	minAct, maxAct, live := pr.activity(r)
	switch live {
	case 0:
		switch r.rel {
		case lp.LE:
			if r.rhs < -epsRowFeas {
				pr.st.infeasible = true
				return false
			}
		case lp.EQ:
			if math.Abs(r.rhs) > epsRowFeas {
				pr.st.infeasible = true
				return false
			}
		}
		r.dead = true
		pr.st.removed++
		return true
	case 1:
		// Singleton row → bound, then the row dies.
		for k, j := range r.vars {
			a := r.coefs[k]
			if lp.StructZero(a) || pr.fixed[j] {
				continue
			}
			bound := r.rhs / a
			switch {
			case r.rel == lp.EQ:
				if pr.p.integer[j] {
					// An integer pinned to a non-integral value is an
					// infeasibility the activity arguments cannot see.
					if math.Abs(bound-math.Round(bound)) > 1e-6 {
						pr.st.infeasible = true
						return false
					}
					bound = math.Round(bound)
				}
				if bound < pr.lo[j]-1e-6 || bound > pr.hi[j]+1e-6 {
					pr.st.infeasible = true
					return false
				}
				if !pr.fix(j, clamp(bound, pr.lo[j], pr.hi[j])) {
					return false
				}
			case a > 0:
				if bound < pr.hi[j] {
					pr.hi[j] = bound
				}
			default:
				if bound > pr.lo[j] {
					pr.lo[j] = bound
				}
			}
			if pr.lo[j] > pr.hi[j]+1e-9 {
				pr.st.infeasible = true
				return false
			}
		}
		r.dead = true
		pr.st.removed++
		return true
	}
	switch r.rel {
	case lp.LE:
		if minAct > r.rhs+epsRowFeas {
			pr.st.infeasible = true
			return false
		}
		if maxAct <= r.rhs+epsRowFeas {
			// Redundant: satisfied by every point in the box.
			r.dead = true
			pr.st.removed++
			return true
		}
	case lp.EQ:
		if minAct > r.rhs+epsRowFeas || maxAct < r.rhs-epsRowFeas {
			pr.st.infeasible = true
			return false
		}
	}
	return pr.tightenBinaries(r, minAct, maxAct)
}

// tightenBinaries applies the activity argument to every live binary of
// the row: a binary whose 0 or 1 setting already violates the row's
// achievable activity range is fixed the other way.
func (pr *presolver) tightenBinaries(r *prow, minAct, maxAct float64) bool {
	changed := false
	for k, j := range r.vars {
		a := r.coefs[k]
		if lp.StructZero(a) || pr.fixed[j] || !pr.p.integer[j] || !lp.StructZero(pr.lo[j]) || !lp.ExactEq(pr.hi[j], 1) {
			continue
		}
		// minAct counts min(0, a) for this binary; setting x_j = s
		// contributes a·s instead.
		minContrib := math.Min(a, 0)
		if !math.IsInf(minAct, -1) {
			if minAct-minContrib+a > r.rhs+epsRowFeas { // x_j = 1 impossible
				if !pr.fix(j, 0) {
					return changed
				}
				changed = true
				minAct, maxAct, _ = pr.activity(r)
				continue
			}
			if minAct-minContrib > r.rhs+epsRowFeas { // x_j = 0 impossible
				if !pr.fix(j, 1) {
					return changed
				}
				changed = true
				minAct, maxAct, _ = pr.activity(r)
				continue
			}
		}
		if r.rel == lp.EQ && !math.IsInf(maxAct, 1) {
			maxContrib := math.Max(a, 0)
			if maxAct-maxContrib+a < r.rhs-epsRowFeas { // x_j = 1 cannot reach rhs
				if !pr.fix(j, 0) {
					return changed
				}
				changed = true
				minAct, maxAct, _ = pr.activity(r)
				continue
			}
			if maxAct-maxContrib < r.rhs-epsRowFeas { // x_j = 0 cannot reach rhs
				if !pr.fix(j, 1) {
					return changed
				}
				changed = true
				minAct, maxAct, _ = pr.activity(r)
			}
		}
	}
	return changed
}

// liveEntries returns the live (variable, coefficient) pairs of a row
// sorted by variable index.
func (pr *presolver) liveEntries(r *prow) ([]int, []float64) {
	var vars []int
	var coefs []float64
	for k, j := range r.vars {
		if !lp.StructZero(r.coefs[k]) && !pr.fixed[j] {
			vars = append(vars, j)
			coefs = append(coefs, r.coefs[k])
		}
	}
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vars[order[a]] < vars[order[b]] })
	sv := make([]int, len(vars))
	sc := make([]float64, len(vars))
	for i, o := range order {
		sv[i], sc[i] = vars[o], coefs[o]
	}
	return sv, sc
}

// dropDuplicateRows removes rows with identical live terms, keeping the
// tightest rhs (LE: smallest; EQ with differing rhs is infeasible).
func (pr *presolver) dropDuplicateRows() {
	seen := make(map[string]*prow, len(pr.rows))
	for _, r := range pr.rows {
		if r.dead {
			continue
		}
		vars, coefs := pr.liveEntries(r)
		key := fmt.Sprintf("%v|%v|%v", r.rel, vars, coefs)
		first, dup := seen[key]
		if !dup {
			seen[key] = r
			continue
		}
		switch r.rel {
		case lp.LE:
			if r.rhs < first.rhs {
				first.rhs = r.rhs
			}
		case lp.EQ:
			if math.Abs(r.rhs-first.rhs) > epsRowFeas {
				pr.st.infeasible = true
				return
			}
		}
		r.dead = true
		pr.st.removed++
	}
}

// dropDominatedRows removes LE rows implied by another LE row: row A is
// dominated by B when every coefficient of B is ≥ A's (missing terms
// count as 0), B's rhs is ≤ A's, and every variable where they differ
// has a nonnegative lower bound (so Σ aᵢxᵢ ≤ Σ bᵢxᵢ ≤ rhs_B ≤ rhs_A).
func (pr *presolver) dropDominatedRows() {
	var cand []*prow
	for _, r := range pr.rows {
		if !r.dead && r.rel == lp.LE {
			cand = append(cand, r)
		}
	}
	if len(cand) < 2 || len(cand) > preDomRowCap {
		return
	}
	type entry struct {
		vars  []int
		coefs []float64
	}
	entries := make([]entry, len(cand))
	for i, r := range cand {
		entries[i].vars, entries[i].coefs = pr.liveEntries(r)
	}
	coefOf := func(e entry, j int) (float64, bool) {
		k := sort.SearchInts(e.vars, j)
		if k < len(e.vars) && e.vars[k] == j {
			return e.coefs[k], true
		}
		return 0, false
	}
	dominates := func(b, a int) bool { // does cand[b] imply cand[a]?
		if cand[b].rhs > cand[a].rhs+epsPre {
			return false
		}
		// Every variable of either row must satisfy bCoef ≥ aCoef, and
		// wherever they differ the variable must be nonnegative.
		check := func(j int, ac, bc float64) bool {
			if bc < ac-epsPre {
				return false
			}
			if math.Abs(bc-ac) > epsPre && pr.lo[j] < -epsPre {
				return false
			}
			return true
		}
		for k, j := range entries[a].vars {
			bc, _ := coefOf(entries[b], j)
			if !check(j, entries[a].coefs[k], bc) {
				return false
			}
		}
		for k, j := range entries[b].vars {
			if _, in := coefOf(entries[a], j); in {
				continue
			}
			if !check(j, 0, entries[b].coefs[k]) {
				return false
			}
		}
		return true
	}
	for a := range cand {
		if cand[a].dead {
			continue
		}
		for b := range cand {
			if a == b || cand[b].dead {
				continue
			}
			if dominates(b, a) {
				// Symmetric pairs (mutual domination) keep the lower index.
				if dominates(a, b) && a < b {
					continue
				}
				cand[a].dead = true
				pr.st.removed++
				break
			}
		}
	}
}

// removeEmptyColumns fixes variables that appear in no live row at
// their objective-preferred bound.
func (pr *presolver) removeEmptyColumns() {
	inRow := make([]bool, len(pr.lo))
	for _, r := range pr.rows {
		if r.dead {
			continue
		}
		for k, j := range r.vars {
			if !lp.StructZero(r.coefs[k]) && !pr.fixed[j] {
				inRow[j] = true
			}
		}
	}
	for j := range pr.lo {
		if pr.fixed[j] || inRow[j] {
			continue
		}
		c := pr.minCost[j]
		switch {
		case c >= 0:
			if !pr.fix(j, pr.lo[j]) {
				return
			}
		default:
			if math.IsInf(pr.hi[j], 1) {
				pr.st.unbounded = true
				return
			}
			if !pr.fix(j, pr.hi[j]) {
				return
			}
		}
	}
}

// build assembles the reduced Problem and the postsolve maps.
func (pr *presolver) build() {
	st := pr.st
	n := len(pr.lo)
	st.mapTo = make([]int, n)
	st.fixedVal = make([]float64, n)
	red := NewProblem(pr.p.sense)
	for j := 0; j < n; j++ {
		if pr.fixed[j] {
			st.mapTo[j] = -1
			st.fixedVal[j] = pr.fixedVal[j]
			st.constant += pr.p.lp.Cost(lp.Var(j)) * pr.fixedVal[j]
			st.removed++
			continue
		}
		st.mapTo[j] = len(st.keep)
		st.keep = append(st.keep, j)
		name := pr.p.lp.VarName(lp.Var(j))
		if pr.p.integer[j] {
			red.AddIntegerVariable(name, pr.lo[j], pr.hi[j], pr.p.lp.Cost(lp.Var(j)))
		} else {
			red.AddVariable(name, pr.lo[j], pr.hi[j], pr.p.lp.Cost(lp.Var(j)))
		}
	}
	for _, r := range pr.rows {
		if r.dead {
			continue
		}
		var terms []lp.Term
		for k, j := range r.vars {
			if !lp.StructZero(r.coefs[k]) && !pr.fixed[j] {
				terms = append(terms, lp.Term{Var: lp.Var(st.mapTo[j]), Coef: r.coefs[k]})
			}
		}
		red.AddConstraint(r.rel, r.rhs, terms...)
	}
	st.red = red
}

// epsRowFeas is the row-violation tolerance presolve shares with the
// LP's Evaluate (kept equal so presolve never declares a point the LP
// accepts infeasible).
const epsRowFeas = 1e-6

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
