package mip

import (
	"math"
	"sort"

	"repro/internal/lp"
)

// This file implements pseudo-cost branching: per-variable, per-direction
// estimates of how much the LP bound degrades per unit of enforced
// integrality, initialized by strong-branching probes on the root's most
// fractional candidates and updated from the observed bound movement of
// every solved child node. The branching score is the classic product
// rule max(pc⁻·f, ε) · max(pc⁺·(1−f), ε).

const (
	// strongBranchCandidates caps the root strong-branching probes: the
	// candidates closest to one half each get a floor and a ceil LP.
	strongBranchCandidates = 8
	// strongBranchTrigger is the node count at which the lazy probes
	// fire: searches that finish earlier never pay for them, searches
	// that grow past it amortize the 2×strongBranchCandidates LPs over
	// the remaining tree.
	strongBranchTrigger = 64
	// infeasiblePenalty is the per-unit degradation recorded when a
	// strong-branching child is infeasible (branching there prunes a
	// whole side, which is as good as a huge bound movement).
	infeasiblePenalty = 1e10
	// pseudoEps floors the product-rule factors so zero-degradation
	// directions still differentiate by fractionality.
	pseudoEps = 1e-12
)

// pseudoCosts holds the per-variable degradation estimates.
type pseudoCosts struct {
	dnSum, upSum []float64
	dnCnt, upCnt []int
	totDn, totUp float64
	nDn, nUp     int
}

func newPseudoCosts(n int) *pseudoCosts {
	return &pseudoCosts{
		dnSum: make([]float64, n),
		upSum: make([]float64, n),
		dnCnt: make([]int, n),
		upCnt: make([]int, n),
	}
}

// observe records a bound degradation deg caused by branching variable
// j in the given direction off a parent fractionality frac.
func (pc *pseudoCosts) observe(j int, up bool, deg, frac float64) {
	denom := frac
	if up {
		denom = 1 - frac
	}
	if denom < 1e-6 {
		denom = 1e-6
	}
	pc.observeUnit(j, up, deg/denom)
}

// observeUnit records an already-normalized per-unit degradation.
func (pc *pseudoCosts) observeUnit(j int, up bool, perUnit float64) {
	if up {
		pc.upSum[j] += perUnit
		pc.upCnt[j]++
		pc.totUp += perUnit
		pc.nUp++
	} else {
		pc.dnSum[j] += perUnit
		pc.dnCnt[j]++
		pc.totDn += perUnit
		pc.nDn++
	}
}

// est returns the per-unit degradation estimate for (j, direction),
// falling back to the global average, then to 1, when unobserved.
func (pc *pseudoCosts) est(j int, up bool) float64 {
	if up {
		if pc.upCnt[j] > 0 {
			return pc.upSum[j] / float64(pc.upCnt[j])
		}
		if pc.nUp > 0 {
			return pc.totUp / float64(pc.nUp)
		}
	} else {
		if pc.dnCnt[j] > 0 {
			return pc.dnSum[j] / float64(pc.dnCnt[j])
		}
		if pc.nDn > 0 {
			return pc.totDn / float64(pc.nDn)
		}
	}
	return 1
}

// score is the product rule over both directions.
func (pc *pseudoCosts) score(j int, frac float64) float64 {
	dn := pc.est(j, false) * frac
	up := pc.est(j, true) * (1 - frac)
	return math.Max(dn, pseudoEps) * math.Max(up, pseudoEps)
}

// strongBranchInit seeds the pseudo-cost table by solving the floor and
// ceil child LPs of the root's most fractional integer candidates, warm
// started from the root basis.
func (s *search) strongBranchInit(rootSol *lp.Solution) {
	p := s.p
	type cand struct {
		j    int
		frac float64
	}
	var cands []cand
	for j, isInt := range p.integer {
		if !isInt {
			continue
		}
		f := rootSol.X[j] - math.Floor(rootSol.X[j])
		if f < s.opts.IntTol || f > 1-s.opts.IntTol {
			continue
		}
		cands = append(cands, cand{j, f})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		da := math.Abs(cands[a].frac - 0.5)
		db := math.Abs(cands[b].frac - 0.5)
		if !lp.ExactEq(da, db) {
			return da < db
		}
		return cands[a].j < cands[b].j
	})
	if len(cands) > strongBranchCandidates {
		cands = cands[:strongBranchCandidates]
	}
	basis := rootSol.Basis()
	for _, c := range cands {
		if s.ctx.Err() != nil {
			return
		}
		v := lp.Var(c.j)
		lo, hi := p.lp.Bounds(v)
		x := rootSol.X[c.j]
		// With non-integral user bounds a rounded probe range can be
		// empty, exactly as in pushChildren; such a direction is simply
		// an infeasible child.
		if dn := math.Floor(x); dn >= lo {
			p.lp.SetBounds(v, lo, dn)
			s.strongProbe(c.j, false, c.frac, rootSol.Objective, basis)
		} else {
			s.pc.observeUnit(c.j, false, infeasiblePenalty)
		}
		if up := math.Ceil(x); up <= hi {
			p.lp.SetBounds(v, up, hi)
			s.strongProbe(c.j, true, c.frac, rootSol.Objective, basis)
		} else {
			s.pc.observeUnit(c.j, true, infeasiblePenalty)
		}
		p.lp.SetBounds(v, lo, hi)
	}
}

// strongProbe solves one child LP and feeds the pseudo-cost table.
func (s *search) strongProbe(j int, up bool, frac, rootObj float64, basis *lp.Basis) {
	sol, err := s.p.lp.SolveContextFrom(s.ctx, basis)
	if err != nil {
		return
	}
	s.addEffort(sol)
	s.st.StrongBranches++
	switch sol.Status {
	case lp.Optimal:
		s.pc.observe(j, up, s.worsen(sol.Objective, rootObj), frac)
	case lp.Infeasible:
		s.pc.observeUnit(j, up, infeasiblePenalty)
	}
}
