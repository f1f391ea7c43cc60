package mip

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
)

// This file implements the root cutting planes of the strengthened
// pipeline: clique cuts separated from a binary-literal conflict graph
// and lifted cover cuts separated from the knapsack-style ≤ rows every
// placement formulation of the paper emits. Cuts are added to the
// (reduced, solver-owned) relaxation at the root only, so all node
// bases share one shape and child warm starts keep working.

const (
	// cutRoundCap bounds the cuts added per separation round.
	cutRoundCap = 32
	// cutMinViolation is the minimum LP violation worth a cut.
	cutMinViolation = 1e-4
	// conflictRowBinCap skips conflict extraction on rows with more
	// active binaries than this (wide rows rarely produce pairwise
	// conflicts that survive the activity precheck).
	conflictRowBinCap = 64
	// cliqueSeedCap bounds the greedy clique growing starts per round.
	cliqueSeedCap = 24
)

// cutRow is one ≤ cutting plane in the solver's variable space.
type cutRow struct {
	terms []lp.Term
	rhs   float64
}

// leForm is one constraint in Σ coefs·x ≤ rhs orientation (EQ rows
// contribute both directions).
type leForm struct {
	vars  []int
	coefs []float64
	rhs   float64
}

// separator holds the per-solve separation state: the normalized rows,
// the literal conflict graph, and the signatures of cuts already added.
type separator struct {
	p     *Problem
	forms []leForm
	isBin []bool

	edges     map[uint64]struct{}
	neighbors [][]int32 // literal → sorted distinct neighbor literals
	seen      map[string]bool
}

// literal encoding: 2j is "x_j = 1", 2j+1 is "x_j = 0".
func litOf(j int, pos bool) int32 {
	if pos {
		return int32(2 * j)
	}
	return int32(2*j + 1)
}

func litVar(l int32) int { return int(l) / 2 }

func litPos(l int32) bool { return l%2 == 0 }

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// newSeparator normalizes the problem rows and builds the conflict
// graph once; separation rounds then only rescan for violations.
func newSeparator(p *Problem) *separator {
	s := &separator{
		p:     p,
		edges: make(map[uint64]struct{}),
		seen:  make(map[string]bool),
	}
	s.isBin = make([]bool, p.lp.NumVariables())
	for j, isInt := range p.integer {
		lo, hi := p.lp.Bounds(lp.Var(j))
		s.isBin[j] = isInt && lp.StructZero(lo) && lp.ExactEq(hi, 1)
	}
	for _, r := range normalizeRows(p, p.lp.NumConstraints()) {
		s.forms = append(s.forms, leForm{vars: r.vars, coefs: r.coefs, rhs: r.rhs})
		if r.rel == lp.EQ {
			neg := leForm{vars: r.vars, coefs: make([]float64, len(r.coefs)), rhs: -r.rhs}
			for k, c := range r.coefs {
				neg.coefs[k] = -c
			}
			s.forms = append(s.forms, neg)
		}
	}
	s.buildConflicts()
	return s
}

// buildConflicts derives pairwise binary-literal conflicts from each ≤
// form via the activity argument: literals l1, l2 conflict when the
// row's minimum activity plus both literals' activation increases
// exceeds the rhs — then l1 and l2 cannot both hold in any feasible
// point, globally.
func (s *separator) buildConflicts() {
	p := s.p
	for _, f := range s.forms {
		minAct := 0.0
		ok := true
		var bins []int // indices into f.vars
		for k, j := range f.vars {
			a := f.coefs[k]
			lo, hi := p.lp.Bounds(lp.Var(j))
			if a > 0 {
				minAct += a * lo
			} else {
				if math.IsInf(hi, 1) {
					ok = false
					break
				}
				minAct += a * hi
			}
			if s.isBin[j] {
				bins = append(bins, k)
			}
		}
		if !ok || len(bins) < 2 || len(bins) > conflictRowBinCap {
			continue
		}
		// inc(l) = activation increase of setting the literal true.
		inc := func(k int, pos bool) float64 {
			a := f.coefs[k]
			if pos {
				return math.Max(a, 0)
			}
			return math.Max(-a, 0)
		}
		// Precheck: if even the two largest increases cannot violate
		// the row, no pair can.
		top1, top2 := 0.0, 0.0
		for _, k := range bins {
			for _, pos := range [2]bool{true, false} {
				v := inc(k, pos)
				if v > top1 {
					top1, top2 = v, top1
				} else if v > top2 {
					top2 = v
				}
			}
		}
		if minAct+top1+top2 <= f.rhs+epsRowFeas {
			continue
		}
		for a := 0; a < len(bins); a++ {
			for b := a + 1; b < len(bins); b++ {
				ka, kb := bins[a], bins[b]
				for _, pa := range [2]bool{true, false} {
					ia := inc(ka, pa)
					if ia <= 0 {
						continue
					}
					for _, pb := range [2]bool{true, false} {
						ib := inc(kb, pb)
						if ib <= 0 {
							continue
						}
						if minAct+ia+ib > f.rhs+epsRowFeas {
							s.addEdge(litOf(f.vars[ka], pa), litOf(f.vars[kb], pb))
						}
					}
				}
			}
		}
	}
	// Sort and dedupe the adjacency lists for deterministic growing.
	for l := range s.neighbors {
		ns := s.neighbors[l]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		w := 0
		for i, v := range ns {
			if i == 0 || v != ns[i-1] {
				ns[w] = v
				w++
			}
		}
		s.neighbors[l] = ns[:w]
	}
}

func (s *separator) addEdge(a, b int32) {
	k := edgeKey(a, b)
	if _, dup := s.edges[k]; dup {
		return
	}
	s.edges[k] = struct{}{}
	need := int(math.Max(float64(a), float64(b))) + 1
	for len(s.neighbors) < need {
		s.neighbors = append(s.neighbors, nil)
	}
	s.neighbors[a] = append(s.neighbors[a], b)
	s.neighbors[b] = append(s.neighbors[b], a)
}

func (s *separator) adjacent(a, b int32) bool {
	_, ok := s.edges[edgeKey(a, b)]
	return ok
}

// separate returns violated cuts for the fractional point x, capped per
// round and deduplicated across the whole solve.
func (s *separator) separate(x []float64) []cutRow {
	var cuts []cutRow
	cuts = s.cliqueCuts(x, cuts)
	if len(cuts) < cutRoundCap {
		cuts = s.coverCuts(x, cuts)
	}
	if len(cuts) > cutRoundCap {
		cuts = cuts[:cutRoundCap]
	}
	return cuts
}

// litVal is the LP value of a literal.
func litVal(x []float64, l int32) float64 {
	if litPos(l) {
		return x[litVar(l)]
	}
	return 1 - x[litVar(l)]
}

// cliqueCuts grows cliques in the conflict graph around high-valued
// literals; a clique Q with Σ val > 1 yields the violated valid
// inequality Σ_{l∈Q} l ≤ 1.
func (s *separator) cliqueCuts(x []float64, cuts []cutRow) []cutRow {
	if len(s.edges) == 0 {
		return cuts
	}
	var cand []int32
	for l := range s.neighbors {
		if len(s.neighbors[l]) > 0 && litVal(x, int32(l)) > 0.05 {
			cand = append(cand, int32(l))
		}
	}
	if len(cand) < 3 {
		return cuts
	}
	sort.SliceStable(cand, func(a, b int) bool {
		va, vb := litVal(x, cand[a]), litVal(x, cand[b])
		if !lp.ExactEq(va, vb) {
			return va > vb
		}
		return cand[a] < cand[b]
	})
	seeds := len(cand)
	if seeds > cliqueSeedCap {
		seeds = cliqueSeedCap
	}
	var clique []int32
	for si := 0; si < seeds && len(cuts) < cutRoundCap; si++ {
		seed := cand[si]
		clique = append(clique[:0], seed)
		sum := litVal(x, seed)
		for _, l := range cand {
			if l == seed {
				continue
			}
			ok := true
			for _, m := range clique {
				if litVar(l) == litVar(m) || !s.adjacent(l, m) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, l)
				sum += litVal(x, l)
			}
		}
		if len(clique) < 3 || sum <= 1+cutMinViolation {
			continue
		}
		if c, ok := s.emitLiteralCut(clique, 1); ok {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// emitLiteralCut converts Σ literals ≤ maxTrue into a cutRow over the
// problem variables, deduplicating by signature.
func (s *separator) emitLiteralCut(lits []int32, maxTrue int) (cutRow, bool) {
	sorted := append([]int32(nil), lits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sig := fmt.Sprintf("%v|%d", sorted, maxTrue)
	if s.seen[sig] {
		return cutRow{}, false
	}
	s.seen[sig] = true
	rhs := float64(maxTrue)
	terms := make([]lp.Term, 0, len(sorted))
	for _, l := range sorted {
		if litPos(l) {
			terms = append(terms, lp.Term{Var: lp.Var(litVar(l)), Coef: 1})
		} else {
			terms = append(terms, lp.Term{Var: lp.Var(litVar(l)), Coef: -1})
			rhs-- // (1 - x) ≤ … moves the constant to the rhs
		}
	}
	return cutRow{terms: terms, rhs: rhs}, true
}

// coverCuts separates lifted cover inequalities from the binary
// knapsack relaxation of each ≤ form: complementing negative
// coefficients yields Σ ā z ≤ b̄ over literals z; a cover C (Σ_{C} ā >
// b̄) gives Σ_{C} z ≤ |C|−1, extended by every literal at least as
// heavy as the heaviest cover member.
func (s *separator) coverCuts(x []float64, cuts []cutRow) []cutRow {
	p := s.p
	type item struct {
		k    int // index into f.vars
		lit  int32
		w    float64 // complemented weight ā
		zval float64 // LP value of the literal
	}
	for _, f := range s.forms {
		if len(cuts) >= cutRoundCap {
			break
		}
		// Fold non-binary terms at their minimum contribution.
		base := f.rhs
		ok := true
		var items []item
		wsumAll := 0.0
		for k, j := range f.vars {
			a := f.coefs[k]
			if lp.StructZero(a) {
				continue
			}
			if !s.isBin[j] {
				lo, hi := p.lp.Bounds(lp.Var(j))
				if a > 0 {
					base -= a * lo
				} else {
					if math.IsInf(hi, 1) {
						ok = false
						break
					}
					base -= a * hi
				}
				continue
			}
			it := item{k: k, w: math.Abs(a)}
			if a > 0 {
				it.lit = litOf(j, true)
				it.zval = x[j]
			} else {
				it.lit = litOf(j, false)
				it.zval = 1 - x[j]
				base -= a // a·x = a − a·z̄ with ā = −a
			}
			items = append(items, it)
			wsumAll += it.w
		}
		if !ok || len(items) < 2 || wsumAll <= base+1e-9 {
			continue
		}
		// Greedy cover: cheapest (1−z)/ā first until the weight spills.
		order := make([]int, len(items))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ra := (1 - items[order[a]].zval) / items[order[a]].w
			rb := (1 - items[order[b]].zval) / items[order[b]].w
			if !lp.ExactEq(ra, rb) {
				return ra < rb
			}
			return items[order[a]].lit < items[order[b]].lit
		})
		var cover []int
		wsum := 0.0
		for _, i := range order {
			cover = append(cover, i)
			wsum += items[i].w
			if wsum > base+1e-9 {
				break
			}
		}
		if wsum <= base+1e-9 {
			continue
		}
		// Minimalize: drop the least fractional members while the
		// cover still overflows.
		sort.SliceStable(cover, func(a, b int) bool {
			if !lp.ExactEq(items[cover[a]].zval, items[cover[b]].zval) {
				return items[cover[a]].zval < items[cover[b]].zval
			}
			return items[cover[a]].lit < items[cover[b]].lit
		})
		w := 0
		for _, i := range cover {
			if wsum-items[i].w > base+1e-9 {
				wsum -= items[i].w
				continue
			}
			cover[w] = i
			w++
		}
		cover = cover[:w]
		if len(cover) < 2 {
			continue
		}
		viol := 1.0 - float64(len(cover))
		amax := 0.0
		for _, i := range cover {
			viol += items[i].zval
			if items[i].w > amax {
				amax = items[i].w
			}
		}
		if viol <= cutMinViolation {
			continue
		}
		// Simple lifting: every item at least as heavy as the cover's
		// heaviest joins with coefficient 1.
		lits := make([]int32, 0, len(cover))
		inCover := make(map[int]bool, len(cover))
		for _, i := range cover {
			inCover[i] = true
			lits = append(lits, items[i].lit)
		}
		for i := range items {
			if !inCover[i] && items[i].w >= amax-1e-12 {
				lits = append(lits, items[i].lit)
			}
		}
		if c, okc := s.emitLiteralCut(lits, len(cover)-1); okc {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// cutLoop runs root separation rounds: separate against the current
// root point, add the cuts, re-solve cold (the row shape changed), and
// repeat until no violated cut remains or the round budget is spent.
// Rows added by failed re-solves are rolled back so the tree only ever
// sees relaxations the simplex handled cleanly.
func (s *search) cutLoop(rootSol *lp.Solution) *lp.Solution {
	p := s.p
	sep := newSeparator(p)
	for round := 0; round < s.opts.CutRounds; round++ {
		if s.ctx.Err() != nil {
			s.interrupted = lp.Canceled
			return rootSol
		}
		cuts := sep.separate(rootSol.X)
		if len(cuts) == 0 {
			break
		}
		mark := p.lp.NumConstraints()
		for _, c := range cuts {
			p.lp.AddConstraint(lp.LE, c.rhs, c.terms...)
		}
		ns, err := p.lp.SolveContext(s.ctx)
		if err != nil {
			p.lp.TruncateConstraints(mark)
			break
		}
		s.addEffort(ns)
		if ns.Status != lp.Optimal {
			p.lp.TruncateConstraints(mark)
			if ns.Status == lp.Canceled || ns.Status == lp.IterLimit {
				s.interrupted = ns.Status
			}
			return rootSol
		}
		s.st.CutsAdded += len(cuts)
		rootSol = ns
		s.bestBound = ns.Objective
	}
	return rootSol
}
