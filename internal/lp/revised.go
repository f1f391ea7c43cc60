package lp

import (
	"context"
	"math"
)

// This file implements the sparse revised simplex: the constraint matrix
// is stored column-major in compressed sparse form, the basis inverse is
// an LU factorization refreshed periodically plus a product-form eta
// file, pricing is Devex (approximate steepest edge) with a Bland
// anti-cycling fallback after a run of degenerate pivots, and
// FTRAN/BTRAN replace a dense per-pivot tableau update. warm.go adds
// the bounded dual simplex that restores primal feasibility when a
// solve is warm-started from a saved Basis (the branch-and-bound case,
// where only one variable's bounds moved between solves).

// maxEtas is the eta-file length that triggers a refactorization.
const maxEtas = 100

// colStatus is the bound status of a standard-form column.
type colStatus int8

const (
	atLower colStatus = iota
	atUpper
	basic
)

// csc is a compressed sparse column matrix.
type csc struct {
	colPtr []int32
	rowIdx []int32
	val    []float64
}

func (a *csc) col(j int) ([]int32, []float64) {
	lo, hi := a.colPtr[j], a.colPtr[j+1]
	return a.rowIdx[lo:hi], a.val[lo:hi]
}

// eta is one product-form update of the basis inverse: after a pivot on
// row r with FTRAN'd entering column alpha, B' = B·E with E equal to
// identity except column r = alpha.
type eta struct {
	r   int32
	idx []int32 // nonzero rows of alpha, excluding r
	val []float64
	piv float64 // alpha[r]
}

// revised is the working state of the sparse revised simplex. A Problem
// keeps one as its workspace and reuses it for every solve while its
// rows and variables are unchanged (see Problem.workspace): the matrix
// and every buffer are allocated once, and reset starts each solve.
type revised struct {
	m, n int

	cols csc       // standard-form columns: struct | slack | artificial
	rhs  []float64 // b

	status []colStatus
	lower  []float64
	upper  []float64
	cost   []float64 // phase-2 costs (sense-adjusted)
	cost1  []float64 // phase-1 costs: 1 on the artificials, else 0

	basis []int // column basic in each row
	xB    []float64

	nStruct int
	artBase int

	// Basis inverse: sparse LU of the basis (triangular peeling plus a
	// dense bump, see lu.go), refreshed every maxEtas pivots, plus the
	// eta file accumulated since. lu is the factor in use: own, which
	// every refactorization writes, or seedLU, which seedBasis installs.
	lu      *luFactor
	own     luFactor
	etas    []eta
	factors int // Refactorizations counter

	// The seed slot: seedLU factors the basis of seed, the last seeded
	// Basis, and seedNeg records which of its basic artificials had a
	// −1 coefficient. Branch-and-bound seeds both children of a node,
	// and every strong-branching probe, with the same Basis, one solve
	// after another.
	seed    *Basis
	seedNeg []bool // per basis slot
	seedLU  luFactor

	// Devex reference-framework weights.
	weight []float64
	resets int // DevexResets counter

	// Reduced costs, maintained incrementally between refactorizations
	// and recomputed from scratch whenever djOK is false.
	dj   []float64
	djOK bool

	iters   int
	maxIter int
	ctx     context.Context

	bland      int
	blandLimit int

	// Scratch vectors (no allocation in the pivot loop).
	sAlpha []float64 // FTRAN'd entering column, length m
	sRho   []float64 // BTRAN'd unit vector, length m
	sArj   []float64 // pivot row over nonbasic columns, length n
}

// newRevised converts a Problem into simplex standard form: min c·x
// s.t. Ax = b, l ≤ x ≤ u, slacks for inequality rows, one artificial
// per row, then resets it for a first solve.
func newRevised(p *Problem) *revised {
	m := len(p.rows)
	nStruct := len(p.names)
	nSlack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m
	rv := &revised{
		m:          m,
		n:          n,
		nStruct:    nStruct,
		artBase:    nStruct + nSlack,
		rhs:        make([]float64, m),
		status:     make([]colStatus, n),
		lower:      make([]float64, n),
		upper:      make([]float64, n),
		cost:       make([]float64, n),
		cost1:      make([]float64, n),
		basis:      make([]int, m),
		xB:         make([]float64, m),
		seedNeg:    make([]bool, m),
		weight:     make([]float64, n),
		dj:         make([]float64, n),
		maxIter:    200*(m+n) + 5000,
		blandLimit: 60,
		sAlpha:     make([]float64, m),
		sRho:       make([]float64, m),
		sArj:       make([]float64, n),
	}
	for j := rv.artBase; j < n; j++ {
		rv.cost1[j] = 1
	}

	// Build the CSC matrix: structural columns (terms gathered per
	// column, duplicates accumulated), then slack singletons, then
	// artificial singletons, whose signs reset sets.
	colEntries := make([][]int32, nStruct)
	colVals := make([][]float64, nStruct)
	for i, r := range p.rows {
		rv.rhs[i] = r.rhs
		for _, t := range r.terms {
			j := int(t.Var)
			k := len(colEntries[j])
			if k > 0 && colEntries[j][k-1] == int32(i) {
				colVals[j][k-1] += t.Coef
			} else {
				colEntries[j] = append(colEntries[j], int32(i))
				colVals[j] = append(colVals[j], t.Coef)
			}
		}
	}
	nnz := nSlack + m
	for j := range colEntries {
		nnz += len(colEntries[j])
	}
	rv.cols.colPtr = make([]int32, n+1)
	rv.cols.rowIdx = make([]int32, 0, nnz)
	rv.cols.val = make([]float64, 0, nnz)
	push := func(j int, rows []int32, vals []float64) {
		rv.cols.colPtr[j] = int32(len(rv.cols.rowIdx))
		rv.cols.rowIdx = append(rv.cols.rowIdx, rows...)
		rv.cols.val = append(rv.cols.val, vals...)
	}
	for j := 0; j < nStruct; j++ {
		push(j, colEntries[j], colVals[j])
	}
	slack := nStruct
	for i, r := range p.rows {
		switch r.rel {
		case LE:
			push(slack, []int32{int32(i)}, []float64{1})
			slack++
		case GE:
			push(slack, []int32{int32(i)}, []float64{-1})
			slack++
		}
	}
	for i := 0; i < m; i++ {
		push(rv.artBase+i, []int32{int32(i)}, []float64{1})
	}
	rv.cols.colPtr[n] = int32(len(rv.cols.rowIdx))
	rv.reset(p)
	return rv
}

// reset starts a solve of p: bounds and sense-adjusted costs from p,
// every non-artificial column nonbasic at its lower bound, Devex
// weights 1, reduced costs zero, counters and eta file empty, and the
// all-artificial basis. Each artificial's coefficient is ±1, chosen
// from p's current lower bounds so that its initial value (the row
// residual with every other column at its bound) is nonnegative. It is
// the only initialization: a reused workspace starts each solve in the
// state a fresh one would. The seed slot survives it.
func (rv *revised) reset(p *Problem) {
	for j := 0; j < rv.nStruct; j++ {
		rv.lower[j] = p.lower[j]
		rv.upper[j] = p.upper[j]
		c := p.cost[j]
		if p.sense == Maximize {
			c = -c
		}
		rv.cost[j] = c
	}
	for j := rv.nStruct; j < rv.n; j++ {
		rv.lower[j] = 0
		rv.upper[j] = Inf
		rv.cost[j] = 0
	}
	for j := 0; j < rv.artBase; j++ {
		rv.status[j] = atLower
	}
	for j := range rv.weight {
		rv.weight[j] = 1
		rv.dj[j] = 0
	}
	rv.djOK = false
	rv.etas = rv.etas[:0]
	rv.factors, rv.resets, rv.iters, rv.bland = 0, 0, 0, 0

	resid := rv.xB
	copy(resid, rv.rhs)
	for j := 0; j < rv.artBase; j++ {
		if xj := rv.lower[j]; !StructZero(xj) {
			rows, vals := rv.cols.col(j)
			for k, i := range rows {
				resid[i] -= vals[k] * xj
			}
		}
	}
	for i := 0; i < rv.m; i++ {
		sign := 1.0
		if resid[i] < 0 {
			sign = -1
		}
		art := rv.artBase + i
		rv.cols.val[rv.cols.colPtr[art]] = sign
		rv.basis[i] = art
		rv.status[art] = basic
		rv.xB[i] = math.Abs(resid[i])
	}
}

// ---- basis inverse: LU + eta file ----

// refactorize computes a fresh sparse LU of the current basis (see
// lu.go) and clears the eta file. It returns false when the basis is
// numerically singular.
func (rv *revised) refactorize() bool {
	rv.lu = &rv.own
	if !rv.own.factor(&rv.cols, rv.basis) {
		return false
	}
	rv.etas = rv.etas[:0]
	rv.factors++
	rv.djOK = false
	return true
}

// ftran solves B·x = a in place: x arrives as a dense copy of a and
// leaves as B⁻¹a.
func (rv *revised) ftran(x []float64) {
	rv.lu.ftran(x)
	// Apply the eta file in order.
	for e := range rv.etas {
		et := &rv.etas[e]
		xr := x[et.r] / et.piv
		if !StructZero(xr) {
			for t, i := range et.idx {
				x[i] -= et.val[t] * xr
			}
		}
		x[et.r] = xr
	}
}

// btran solves y·B = c in place: y arrives as a dense copy of c and
// leaves as cB⁻¹.
func (rv *revised) btran(y []float64) {
	// Apply the eta file in reverse (row-vector form).
	for e := len(rv.etas) - 1; e >= 0; e-- {
		et := &rv.etas[e]
		s := y[et.r]
		for t, i := range et.idx {
			if !StructZero(y[i]) {
				s -= et.val[t] * y[i]
			}
		}
		y[et.r] = s / et.piv
	}
	rv.lu.btran(y)
}

// appendEta records the pivot (row r, FTRAN'd column alpha) in the eta
// file, refactorizing when the file is full. It returns false on a
// singular refactorization.
func (rv *revised) appendEta(r int, alpha []float64) bool {
	k := len(rv.etas)
	if k >= maxEtas {
		return rv.refactorize()
	}
	// Reuse the idx/val storage of an eta a previous refactorization or
	// solve dropped.
	if k < cap(rv.etas) {
		rv.etas = rv.etas[:k+1]
	} else {
		rv.etas = append(rv.etas, eta{})
	}
	et := &rv.etas[k]
	et.r, et.piv = int32(r), alpha[r]
	et.idx, et.val = et.idx[:0], et.val[:0]
	for i, v := range alpha {
		if i != r && math.Abs(v) > epsDrop {
			et.idx = append(et.idx, int32(i))
			et.val = append(et.val, v)
		}
	}
	return true
}

// ---- pricing and pivoting ----

// nonbasicValue returns the current value of nonbasic column j.
func (rv *revised) nonbasicValue(j int) float64 {
	if rv.status[j] == atUpper {
		return rv.upper[j]
	}
	return rv.lower[j]
}

// computeDj recomputes every reduced cost d_j = c_j − y·a_j from
// scratch (one BTRAN plus one pass over the nonzeros).
func (rv *revised) computeDj(c []float64) {
	y := rv.sRho
	for i := 0; i < rv.m; i++ {
		y[i] = c[rv.basis[i]]
	}
	rv.btran(y)
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == basic {
			rv.dj[j] = 0
			continue
		}
		d := c[j]
		rows, vals := rv.cols.col(j)
		for t, i := range rows {
			if !StructZero(y[i]) {
				d -= y[i] * vals[t]
			}
		}
		rv.dj[j] = d
	}
	rv.djOK = true
}

// resetDevex restores the reference framework (all weights 1).
func (rv *revised) resetDevex() {
	for j := range rv.weight {
		rv.weight[j] = 1
	}
	rv.resets++
}

// chooseEntering returns the entering column and movement direction
// (+1 from lower bound, −1 from upper), or (−1, 0) at optimality. It
// prices by Devex (largest d_j²/w_j) and falls back to Bland's rule
// after a run of degenerate pivots. The reduced costs in rv.dj must be
// current.
func (rv *revised) chooseEntering() (int, int) {
	useBland := rv.bland > rv.blandLimit
	enter, dir := -1, 0
	best := 0.0
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == basic || rv.upper[j]-rv.lower[j] <= epsFeas {
			continue
		}
		d := rv.dj[j]
		var viol float64
		var dj int
		if rv.status[j] == atLower && d < -epsCost {
			viol, dj = -d, +1
		} else if rv.status[j] == atUpper && d > epsCost {
			viol, dj = d, -1
		} else {
			continue
		}
		if useBland {
			return j, dj
		}
		if score := viol * viol / rv.weight[j]; score > best {
			best = score
			enter, dir = j, dj
		}
	}
	return enter, dir
}

// ratioTest computes how far the entering variable can move using the
// FTRAN'd column alpha. It returns the leaving row (or -1), the step
// length, and whether the move is a bound flip of the entering variable
// itself. Ties prefer the numerically larger pivot, or the smallest
// variable index under Bland's rule.
func (rv *revised) ratioTest(enter, dir int, alpha []float64) (leaveRow int, step float64, flip bool) {
	limit := math.Inf(1)
	if !math.IsInf(rv.upper[enter], 1) {
		limit = rv.upper[enter] - rv.lower[enter]
	}
	useBland := rv.bland > rv.blandLimit
	leaveRow = -1
	best := math.Inf(1)
	bestPiv := 0.0
	for i := 0; i < rv.m; i++ {
		delta := float64(dir) * alpha[i]
		if math.Abs(delta) <= epsPiv {
			continue
		}
		k := rv.basis[i]
		var ratio float64
		if delta > 0 {
			ratio = (rv.xB[i] - rv.lower[k]) / delta
		} else {
			if math.IsInf(rv.upper[k], 1) {
				continue
			}
			ratio = (rv.upper[k] - rv.xB[i]) / -delta
		}
		if ratio < 0 {
			ratio = 0
		}
		piv := math.Abs(alpha[i])
		take := false
		switch {
		case leaveRow < 0 || ratio < best-epsFeas:
			take = true
		case ratio <= best+epsFeas:
			if useBland {
				take = k < rv.basis[leaveRow]
			} else {
				take = piv > bestPiv
			}
		}
		if take {
			if ratio < best {
				best = ratio
			}
			leaveRow = i
			bestPiv = piv
		}
	}
	switch {
	case leaveRow < 0 && math.IsInf(limit, 1):
		return -1, 0, false
	case leaveRow < 0 || best > limit:
		return -1, limit, true
	}
	return leaveRow, best, false
}

// boundFlip moves the entering variable across its range without a
// basis change.
func (rv *revised) boundFlip(enter, dir int, step float64, alpha []float64) {
	for i := 0; i < rv.m; i++ {
		rv.xB[i] -= float64(dir) * step * alpha[i]
	}
	if rv.status[enter] == atLower {
		rv.status[enter] = atUpper
	} else {
		rv.status[enter] = atLower
	}
}

// computePivotRow fills rv.sArj with the pivot row α_rj = ρ·a_j over
// nonbasic columns (ρ = B⁻ᵀe_r) and returns it. Entries for basic
// columns are left stale and must not be read.
func (rv *revised) computePivotRow(r int) []float64 {
	rho := rv.sRho
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	rv.btran(rho)
	arj := rv.sArj
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == basic {
			continue
		}
		rows, vals := rv.cols.col(j)
		s := 0.0
		for t, i := range rows {
			if !StructZero(rho[i]) {
				s += rho[i] * vals[t]
			}
		}
		arj[j] = s
	}
	return arj
}

// applyPivot performs the basis change: column enter (moved by step in
// direction dir, FTRAN'd as alpha) replaces the variable basic in row
// r, which leaves to bound leaveTo. arj must hold the pivot row from
// computePivotRow; it drives the incremental reduced-cost and Devex
// updates. Returns false on a failed refactorization.
func (rv *revised) applyPivot(r, enter int, step float64, dir int, alpha []float64, leaveTo colStatus, arj []float64) bool {
	leave := rv.basis[r]
	enterVal := rv.nonbasicValue(enter) + float64(dir)*step
	for i := 0; i < rv.m; i++ {
		if i != r {
			rv.xB[i] -= float64(dir) * step * alpha[i]
		}
	}
	if leaveTo == atUpper && math.IsInf(rv.upper[leave], 1) {
		leaveTo = atLower
	}
	rv.status[leave] = leaveTo

	dEnter := rv.dj[enter]
	pivA := alpha[r]
	ratio := dEnter / pivA
	wScale := rv.weight[enter] / (pivA * pivA)
	maxW := 0.0
	for j := 0; j < rv.n; j++ {
		// leave was basic when arj was computed, so its entry is stale;
		// its reduced cost and weight are set explicitly below.
		if rv.status[j] == basic || j == enter || j == leave {
			continue
		}
		a := arj[j]
		if !StructZero(a) {
			rv.dj[j] -= ratio * a
			if w := a * a * wScale; w > rv.weight[j] {
				rv.weight[j] = w
			}
		}
		if rv.weight[j] > maxW {
			maxW = rv.weight[j]
		}
	}
	rv.dj[leave] = -ratio
	rv.dj[enter] = 0
	rv.weight[leave] = math.Max(wScale, 1)
	if maxW > devexMaxWeight {
		rv.resetDevex()
	}

	rv.basis[r] = enter
	rv.status[enter] = basic
	rv.xB[r] = enterVal
	return rv.appendEta(r, alpha)
}

// loadColumn writes column j of A densely into dst.
func (rv *revised) loadColumn(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	rows, vals := rv.cols.col(j)
	for t, i := range rows {
		dst[i] = vals[t]
	}
}

// optimize runs primal revised simplex iterations with cost vector c
// until optimality, unboundedness, or a budget.
func (rv *revised) optimize(c []float64) Status {
	rv.computeDj(c)
	for {
		if rv.iters >= rv.maxIter {
			return IterLimit
		}
		// Poll the context every 64 pivots: cheap against the pricing
		// work of each iteration, responsive enough for deadlines.
		if rv.iters&63 == 0 && rv.ctx != nil && rv.ctx.Err() != nil {
			return Canceled
		}
		rv.iters++
		if !rv.djOK {
			rv.computeDj(c)
		}
		enter, dir := rv.chooseEntering()
		if enter < 0 {
			return Optimal
		}
		alpha := rv.sAlpha
		rv.loadColumn(enter, alpha)
		rv.ftran(alpha)
		leaveRow, step, flip := rv.ratioTest(enter, dir, alpha)
		if leaveRow < 0 && !flip {
			return Unbounded
		}
		if step < epsFeas {
			rv.bland++
			if rv.bland == rv.blandLimit+1 {
				// Entering Bland mode: refresh the reduced costs so the
				// anti-cycling scan runs on drift-free values.
				rv.computeDj(c)
			}
		} else {
			rv.bland = 0
		}
		if flip {
			rv.boundFlip(enter, dir, step, alpha)
			continue
		}
		if math.Abs(alpha[leaveRow]) <= epsPiv {
			// The FTRAN'd pivot is numerically void; refresh the
			// factorization and reduced costs and retry.
			if !rv.refactorize() {
				return IterLimit
			}
			continue
		}
		leaveTo := atUpper
		if float64(dir)*alpha[leaveRow] > 0 {
			leaveTo = atLower
		}
		arj := rv.computePivotRow(leaveRow)
		if !rv.applyPivot(leaveRow, enter, step, dir, alpha, leaveTo, arj) {
			return IterLimit
		}
	}
}

// phase1 finds a feasible basis by minimizing the artificial sum.
func (rv *revised) phase1() Status {
	if !rv.refactorize() {
		return IterLimit
	}
	st := rv.optimize(rv.cost1)
	if st == IterLimit || st == Canceled {
		return st
	}
	artSum := 0.0
	for i, b := range rv.basis {
		if b >= rv.artBase {
			artSum += math.Abs(rv.xB[i])
		}
	}
	for j := rv.artBase; j < rv.n; j++ {
		if rv.status[j] != basic {
			artSum += rv.nonbasicValue(j)
		}
	}
	if artSum > epsArt {
		return Infeasible
	}
	rv.evictArtificials()
	rv.lockArtificials()
	return Optimal
}

// lockArtificials clamps every artificial to zero for phase 2.
func (rv *revised) lockArtificials() {
	for j := rv.artBase; j < rv.n; j++ {
		rv.upper[j] = 0
		if rv.status[j] == atUpper {
			rv.status[j] = atLower
		}
	}
}

// evictArtificials pivots basic artificials (at value ~0) out of the
// basis where a usable pivot exists. Rows
// with no pivot are linearly dependent; their artificial stays basic at
// zero, harmless once clamped.
func (rv *revised) evictArtificials() {
	for r := 0; r < rv.m; r++ {
		if rv.basis[r] < rv.artBase {
			continue
		}
		arj := rv.computePivotRow(r)
		pivCol := -1
		best := epsPiv
		for j := 0; j < rv.artBase; j++ {
			if rv.status[j] == basic {
				continue
			}
			if a := math.Abs(arj[j]); a > best {
				best = a
				pivCol = j
			}
		}
		if pivCol < 0 {
			continue
		}
		alpha := rv.sAlpha
		rv.loadColumn(pivCol, alpha)
		rv.ftran(alpha)
		if math.Abs(alpha[r]) <= epsPiv {
			continue
		}
		if !rv.applyPivot(r, pivCol, 0, +1, alpha, atLower, arj) {
			return
		}
	}
}

// phase2 minimizes the real objective from a feasible basis.
func (rv *revised) phase2() Status {
	return rv.optimize(rv.cost)
}

// extract returns the structural variable values, clamped into bounds.
func (rv *revised) extract() []float64 {
	x := make([]float64, rv.nStruct)
	for j := 0; j < rv.nStruct; j++ {
		x[j] = rv.nonbasicValue(j)
	}
	for i, b := range rv.basis {
		if b < rv.nStruct {
			x[b] = rv.xB[i]
		}
	}
	for j := range x {
		if x[j] < rv.lower[j] {
			x[j] = rv.lower[j]
		}
		if x[j] > rv.upper[j] {
			x[j] = rv.upper[j]
		}
	}
	return x
}

// snapshot captures the basis for later warm starts.
func (rv *revised) snapshot() *Basis {
	b := &Basis{
		cols:   make([]int, rv.m),
		status: make([]colStatus, rv.n),
		m:      rv.m,
		n:      rv.n,
	}
	copy(b.cols, rv.basis)
	copy(b.status, rv.status)
	return b
}
