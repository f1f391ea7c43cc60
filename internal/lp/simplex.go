package lp

import (
	"context"
	"math"
)

// Numerical tolerances live in tol.go, shared with the sparse revised
// simplex so the two implementations cannot drift apart.

// column status in the tableau
type colStatus int8

const (
	atLower colStatus = iota
	atUpper
	basic
)

// tableau is the working state of the bounded-variable primal simplex.
// It maintains the dense current tableau T = B⁻¹A and the basic variable
// values explicitly, updating both on every pivot.
type tableau struct {
	m, n int // rows, total columns (struct + slack + artificial)

	t     [][]float64 // m×n current tableau
	xB    []float64   // values of basic variables, per row
	basis []int       // column basic in each row

	status []colStatus // per column
	lower  []float64
	upper  []float64
	cost   []float64 // phase-2 internal costs (sense-adjusted)

	nStruct int // structural variables (the user's)
	nArt    int // artificial variables
	artBase int // first artificial column index

	iters   int
	maxIter int
	ctx     context.Context // nil means never canceled

	// bland activates Bland's anti-cycling rule after a run of
	// degenerate pivots.
	bland      int // consecutive degenerate pivots
	blandLimit int
}

// newTableau converts a Problem into simplex standard form:
// minimize c·x subject to Ax = b, l ≤ x ≤ u, with slack variables for
// inequality rows and one artificial variable per row forming the
// initial basis.
func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	nStruct := len(p.names)

	nSlack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m // m artificials
	tb := &tableau{
		m:          m,
		n:          n,
		nStruct:    nStruct,
		nArt:       m,
		artBase:    nStruct + nSlack,
		t:          make([][]float64, m),
		xB:         make([]float64, m),
		basis:      make([]int, m),
		status:     make([]colStatus, n),
		lower:      make([]float64, n),
		upper:      make([]float64, n),
		cost:       make([]float64, n),
		maxIter:    200*(m+n) + 5000,
		blandLimit: 60,
	}

	for j := 0; j < nStruct; j++ {
		tb.lower[j] = p.lower[j]
		tb.upper[j] = p.upper[j]
		c := p.cost[j]
		if p.sense == Maximize {
			c = -c
		}
		tb.cost[j] = c
	}
	for j := nStruct; j < n; j++ {
		tb.lower[j] = 0
		tb.upper[j] = Inf
	}

	// Nonbasic structural and slack variables start at their lower
	// bound (always finite per the Problem API).
	for j := 0; j < tb.artBase; j++ {
		tb.status[j] = atLower
	}

	// Build rows; slack sign encodes the relation.
	slack := nStruct
	for i, r := range p.rows {
		rowv := make([]float64, n)
		for _, term := range r.terms {
			rowv[term.Var] += term.Coef
		}
		switch r.rel {
		case LE:
			rowv[slack] = 1
			slack++
		case GE:
			rowv[slack] = -1
			slack++
		}
		// Residual with all non-artificial variables at their bounds.
		resid := r.rhs
		for j := 0; j < tb.artBase; j++ {
			resid -= rowv[j] * tb.lower[j]
		}
		// Negate rows with negative residual so the artificial basis is
		// the identity and the stored tableau really is B⁻¹A.
		if resid < 0 {
			for j := range rowv {
				rowv[j] = -rowv[j]
			}
			resid = -resid
		}
		art := tb.artBase + i
		rowv[art] = 1
		tb.t[i] = rowv
		tb.basis[i] = art
		tb.status[art] = basic
		tb.xB[i] = resid
	}
	return tb
}

// nonbasicValue returns the current value of nonbasic column j.
func (tb *tableau) nonbasicValue(j int) float64 {
	if tb.status[j] == atUpper {
		return tb.upper[j]
	}
	return tb.lower[j]
}

// phase1 minimizes the sum of artificial variables. It returns Optimal
// when a feasible basis was found, Infeasible or IterLimit otherwise.
func (tb *tableau) phase1() Status {
	c := make([]float64, tb.n)
	for j := tb.artBase; j < tb.n; j++ {
		c[j] = 1
	}
	st := tb.optimize(c)
	if st == IterLimit || st == Canceled {
		return st
	}
	// Phase-1 objective = sum of artificial values.
	artSum := 0.0
	for i, b := range tb.basis {
		if b >= tb.artBase {
			artSum += tb.xB[i]
		}
	}
	for j := tb.artBase; j < tb.n; j++ {
		if tb.status[j] != basic {
			artSum += tb.nonbasicValue(j)
		}
	}
	if artSum > epsArt {
		return Infeasible
	}
	tb.evictArtificials()
	// Lock artificials at zero for phase 2.
	for j := tb.artBase; j < tb.n; j++ {
		tb.upper[j] = 0
		if tb.status[j] == atUpper {
			tb.status[j] = atLower
		}
	}
	return Optimal
}

// evictArtificials pivots basic artificial variables (necessarily at
// value ~0) out of the basis where a usable pivot exists. Rows where no
// structural or slack pivot exists are linearly dependent; their
// artificial stays basic at zero, which is harmless once its upper bound
// is clamped.
func (tb *tableau) evictArtificials() {
	for i := 0; i < tb.m; i++ {
		if tb.basis[i] < tb.artBase {
			continue
		}
		pivCol := -1
		best := epsPiv
		for j := 0; j < tb.artBase; j++ {
			if tb.status[j] == basic {
				continue
			}
			if a := math.Abs(tb.t[i][j]); a > best {
				best = a
				pivCol = j
			}
		}
		if pivCol >= 0 {
			tb.pivot(i, pivCol, 0, +1)
		}
	}
}

// phase2 minimizes the real objective starting from the feasible basis
// produced by phase1.
func (tb *tableau) phase2() Status {
	return tb.optimize(tb.cost)
}

// optimize runs primal simplex iterations with cost vector c until
// optimality, unboundedness or the iteration budget.
func (tb *tableau) optimize(c []float64) Status {
	y := make([]float64, tb.m)
	for {
		if tb.iters >= tb.maxIter {
			return IterLimit
		}
		// Poll the context every 64 pivots: cheap against the O(m·n)
		// pricing work of each iteration, responsive enough for deadlines.
		if tb.iters&63 == 0 && tb.ctx != nil && tb.ctx.Err() != nil {
			return Canceled
		}
		tb.iters++

		for i := range y {
			y[i] = c[tb.basis[i]]
		}
		enter, dir := tb.chooseEntering(c, y)
		if enter < 0 {
			return Optimal
		}
		leaveRow, step, flip := tb.ratioTest(enter, dir)
		if leaveRow < 0 && !flip {
			return Unbounded
		}
		if step < epsFeas {
			tb.bland++
		} else {
			tb.bland = 0
		}
		if flip {
			tb.boundFlip(enter, dir, step)
			continue
		}
		tb.pivot(leaveRow, enter, step, dir)
	}
}

// chooseEntering returns the entering column and its movement direction
// (+1 when increasing from the lower bound, -1 when decreasing from the
// upper bound), or (-1, 0) at optimality. It uses Dantzig pricing and
// falls back to Bland's rule after a run of degenerate pivots.
func (tb *tableau) chooseEntering(c, y []float64) (int, int) {
	useBland := tb.bland > tb.blandLimit
	enter, dir := -1, 0
	bestViol := epsCost
	for j := 0; j < tb.n; j++ {
		if tb.status[j] == basic {
			continue
		}
		if tb.upper[j]-tb.lower[j] <= epsFeas {
			continue // fixed variable can never move
		}
		// Reduced cost d_j = c_j - y·T_j.
		d := c[j]
		for i := 0; i < tb.m; i++ {
			if !StructZero(y[i]) {
				d -= y[i] * tb.t[i][j]
			}
		}
		var viol float64
		var dj int
		if tb.status[j] == atLower && d < -epsCost {
			viol, dj = -d, +1
		} else if tb.status[j] == atUpper && d > epsCost {
			viol, dj = d, -1
		} else {
			continue
		}
		if useBland {
			return j, dj
		}
		if viol > bestViol {
			bestViol = viol
			enter, dir = j, dj
		}
	}
	return enter, dir
}

// ratioTest computes how far the entering variable can move. It returns
// the leaving row (or -1), the step length, and whether the move is a
// bound flip of the entering variable itself.
func (tb *tableau) ratioTest(enter, dir int) (leaveRow int, step float64, flip bool) {
	// Movement allowed by the entering variable's own opposite bound.
	limit := math.Inf(1)
	if !math.IsInf(tb.upper[enter], 1) {
		limit = tb.upper[enter] - tb.lower[enter]
	}
	useBland := tb.bland > tb.blandLimit
	leaveRow = -1
	best := math.Inf(1)
	bestPiv := 0.0
	for i := 0; i < tb.m; i++ {
		delta := float64(dir) * tb.t[i][enter]
		if math.Abs(delta) <= epsPiv {
			continue
		}
		k := tb.basis[i]
		var ratio float64
		if delta > 0 {
			// Basic variable decreases towards its lower bound.
			ratio = (tb.xB[i] - tb.lower[k]) / delta
		} else {
			// Basic variable increases towards its upper bound.
			if math.IsInf(tb.upper[k], 1) {
				continue
			}
			ratio = (tb.upper[k] - tb.xB[i]) / -delta
		}
		if ratio < 0 {
			ratio = 0
		}
		piv := math.Abs(tb.t[i][enter])
		take := false
		switch {
		case leaveRow < 0 || ratio < best-epsFeas:
			take = true
		case ratio <= best+epsFeas:
			// Tie: prefer the numerically larger pivot, or the
			// smallest variable index under Bland's rule.
			if useBland {
				take = k < tb.basis[leaveRow]
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
		return -1, 0, false // unbounded
	case leaveRow < 0 || best > limit:
		return -1, limit, true // entering variable flips bound
	}
	return leaveRow, best, false
}

// boundFlip moves the entering variable across its range without a basis
// change, updating the basic values it affects.
func (tb *tableau) boundFlip(enter, dir int, step float64) {
	for i := 0; i < tb.m; i++ {
		tb.xB[i] -= float64(dir) * step * tb.t[i][enter]
	}
	if tb.status[enter] == atLower {
		tb.status[enter] = atUpper
	} else {
		tb.status[enter] = atLower
	}
}

// pivot makes column enter basic in row r after the entering variable
// moved by step in direction dir, and updates the dense tableau.
func (tb *tableau) pivot(r, enter int, step float64, dir int) {
	leave := tb.basis[r]
	delta := float64(dir) * tb.t[r][enter]

	enterVal := tb.nonbasicValue(enter) + float64(dir)*step
	for i := 0; i < tb.m; i++ {
		if i != r {
			tb.xB[i] -= float64(dir) * step * tb.t[i][enter]
		}
	}
	// The leaving variable exits at the bound it ran into.
	if delta > 0 {
		tb.status[leave] = atLower
	} else {
		tb.status[leave] = atUpper
	}
	tb.basis[r] = enter
	tb.status[enter] = basic
	tb.xB[r] = enterVal

	// Gaussian elimination on the tableau.
	piv := tb.t[r][enter]
	rowR := tb.t[r]
	inv := 1 / piv
	for j := 0; j < tb.n; j++ {
		rowR[j] *= inv
	}
	rowR[enter] = 1
	for i := 0; i < tb.m; i++ {
		if i == r {
			continue
		}
		f := tb.t[i][enter]
		if StructZero(f) {
			continue
		}
		rowI := tb.t[i]
		for j := 0; j < tb.n; j++ {
			rowI[j] -= f * rowR[j]
		}
		rowI[enter] = 0
	}
}

// extract returns the structural variable values of the current basis,
// clamped into their bounds to absorb round-off.
func (tb *tableau) extract() []float64 {
	x := make([]float64, tb.nStruct)
	for j := 0; j < tb.nStruct; j++ {
		x[j] = tb.nonbasicValue(j)
	}
	for i, b := range tb.basis {
		if b < tb.nStruct {
			x[b] = tb.xB[i]
		}
	}
	for j := range x {
		if x[j] < tb.lower[j] {
			x[j] = tb.lower[j]
		}
		if x[j] > tb.upper[j] {
			x[j] = tb.upper[j]
		}
	}
	return x
}
