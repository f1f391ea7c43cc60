// Package mip implements a branch-and-bound Mixed Integer Programming
// solver over the simplex of internal/lp. It is the stand-in for the
// CPLEX 0–1 MIP solver the paper uses (§4.4, §6.2): exact on the paper's
// instance sizes, returning provably optimal solutions.
//
// The solver supports arbitrary mixes of continuous and integer
// variables, which covers every formulation of the paper: the pure 0–1
// beacon-placement ILP (§6.1), the mixed programs LP 1 / LP 2 for
// PPM(k) (§4.3), and the MILP PPME(h,k) of §5.3.
//
// The search is root-strengthened: a presolve pass shrinks the instance
// behind a postsolve map, lifted cover and clique cuts tighten the root
// relaxation, reduced-cost fixing pins binaries the root duals prove
// out, and branching is pseudo-cost driven (initialized by
// strong-branching probes at the root). The tests check it against a
// naive depth-first tree kept in plain_test.go; see DESIGN.md §4.
package mip

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
)

// Problem is a mixed integer program: an lp.Problem plus integrality
// marks on a subset of variables.
type Problem struct {
	lp      *lp.Problem
	sense   lp.Sense
	integer []bool
	opts    Options
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of explored nodes. 0 means the default
	// (200000). When exceeded, Solve returns the incumbent with
	// Status = IterLimit when one exists, Infeasible otherwise.
	MaxNodes int
	// Gap is the absolute optimality gap for pruning (default 1e-9;
	// with the paper's unit device costs an absolute gap of 1-1e-6
	// would also be valid, but we keep the conservative default).
	Gap float64
	// RelGap is the relative optimality gap for pruning: subtrees
	// within Gap + RelGap·|incumbent| of the incumbent are cut. The
	// default 0 keeps pruning purely absolute; large-objective
	// instances should set it so pruning scales with the objective.
	RelGap float64
	// Incumbent, when non-nil, warm-starts the search with a known
	// feasible solution (e.g. a greedy heuristic's): subtrees that
	// cannot beat it are pruned immediately. It must be feasible and
	// integral on the integer variables; otherwise it is ignored.
	Incumbent []float64
}

// intTol is the integrality tolerance: an integer variable within
// intTol of an integer counts as integral.
const intTol = 1e-6

// Status mirrors lp.Status for MIP outcomes.
type Status = lp.Status

// Solution is the result of a MIP solve.
type Solution struct {
	// Status is lp.Optimal when the incumbent is proven optimal,
	// lp.IterLimit when the node budget stopped the search, and
	// lp.Canceled when the context fired; in the latter two cases X
	// holds the best incumbent found so far (nil when none exists).
	Status    lp.Status
	Objective float64
	// X is indexed by lp.Var; integer variables are exactly integral
	// (rounded from within intTol). Presolve is invisible here: X is
	// always full-length in the caller's variable space.
	X []float64
	// SolveStats carries the effort counters a MIP solve fills: Nodes,
	// Pivots (every LP solve, including interrupted nodes, warm-start
	// attempts that fell back to a cold solve, root cutting-plane
	// re-solves and strong-branching probes), Refactorizations,
	// DevexResets, WarmStarts (child nodes solved from the parent's
	// basis), CutsAdded, VarsFixed, PresolveRemoved and StrongBranches.
	// Bound is the best proven bound on the optimum (equal to Objective
	// at optimality, tighter than Objective only on early stop).
	core.SolveStats
}

// Value returns the solved value of v.
func (s *Solution) Value(v lp.Var) float64 { return s.X[v] }

// NewProblem returns an empty MIP with the given sense.
func NewProblem(sense lp.Sense) *Problem {
	return &Problem{lp: lp.NewProblem(sense), sense: sense}
}

// SetOptions replaces the solver options.
func (p *Problem) SetOptions(o Options) { p.opts = o }

// AddVariable adds a continuous variable.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) lp.Var {
	v := p.lp.AddVariable(name, lower, upper, cost)
	p.integer = append(p.integer, false)
	return v
}

// AddIntegerVariable adds a general integer variable with the given
// bounds.
func (p *Problem) AddIntegerVariable(name string, lower, upper, cost float64) lp.Var {
	v := p.lp.AddVariable(name, lower, upper, cost)
	p.integer = append(p.integer, true)
	return v
}

// AddBinaryVariable adds a 0–1 variable, the workhorse of the paper's
// placement formulations (x_e, y_i).
func (p *Problem) AddBinaryVariable(name string, cost float64) lp.Var {
	return p.AddIntegerVariable(name, 0, 1, cost)
}

// AddConstraint forwards to the underlying LP.
func (p *Problem) AddConstraint(rel lp.Rel, rhs float64, terms ...lp.Term) {
	p.lp.AddConstraint(rel, rhs, terms...)
}

// FixVariable pins a variable to a constant value. The paper's
// incremental-placement variant (§4.3) fixes the x_e of already-installed
// devices to 1 this way.
func (p *Problem) FixVariable(v lp.Var, value float64) {
	p.lp.SetBounds(v, value, value)
}

// Bounds returns the current bounds of v.
func (p *Problem) Bounds(v lp.Var) (float64, float64) { return p.lp.Bounds(v) }

// NumVariables returns the number of variables.
func (p *Problem) NumVariables() int { return p.lp.NumVariables() }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return p.lp.NumConstraints() }

// node is one branch-and-bound subproblem. Instead of a per-node bounds
// map, each node records the single branch delta that created it plus a
// parent pointer: applying a node's bounds walks the chain root-ward and
// replays the deltas leaf-most-last. A million-node search therefore
// allocates no maps, only fixed-size nodes.
type node struct {
	parent    *node
	branchVar lp.Var // -1 for the root
	lo, hi    float64
	relax     float64 // LP relaxation objective of the parent (priority)
	depth     int
	basis     *lp.Basis
	up        bool    // true when this is the ceil-side child
	frac      float64 // fractional part of branchVar in the parent LP
}

// nodeQueue is a best-first priority queue ordered by relaxation bound.
type nodeQueue struct {
	items []*node
	min   bool // true when lower relaxation bounds are better (Minimize)
}

func (q *nodeQueue) Len() int { return len(q.items) }
func (q *nodeQueue) Less(i, j int) bool {
	if q.min {
		return q.items[i].relax < q.items[j].relax
	}
	return q.items[i].relax > q.items[j].relax
}
func (q *nodeQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *nodeQueue) Push(x interface{}) { q.items = append(q.items, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	// Nil out the vacated slot: the backing array must not retain
	// completed nodes (and their basis snapshots / delta chains) for
	// the rest of the search.
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// ErrNoVariables is returned for an empty problem.
var ErrNoVariables = errors.New("mip: problem has no variables")

// Solve runs branch and bound and returns the best integer-feasible
// solution found together with its optimality status.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveContext(context.Background())
}

// SolveContext runs branch and bound under a context. When ctx fires
// mid-search the best incumbent found so far is returned with
// Status = lp.Canceled instead of being discarded, so deadline-bounded
// callers still receive a feasible (if unproven) solution.
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	if p.lp.NumVariables() == 0 {
		return nil, ErrNoVariables
	}
	opts := p.opts
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 200000
	}
	if lp.StructZero(opts.Gap) {
		opts.Gap = 1e-9
	}
	// Presolve, search the reduced problem, and postsolve the answer
	// back into the caller's variable space.
	pre := presolveProblem(p)
	if pre.infeasible {
		return &Solution{Status: lp.Infeasible, SolveStats: core.SolveStats{PresolveRemoved: pre.removed}}, nil
	}
	if pre.unbounded {
		return &Solution{Status: lp.Unbounded, SolveStats: core.SolveStats{PresolveRemoved: pre.removed}}, nil
	}
	if pre.red.lp.NumVariables() == 0 {
		// Presolve fixed everything: the instance is solved outright.
		x := pre.restore(nil)
		return &Solution{Status: lp.Optimal, Objective: pre.constant, X: x,
			SolveStats: core.SolveStats{Bound: pre.constant, PresolveRemoved: pre.removed}}, nil
	}
	red := pre.red
	// The reduced problem inherits the caller's raw options: the final
	// bound reporting distinguishes explicitly-set gaps from defaults
	// through Problem.opts.
	red.opts = p.opts
	ropts := opts
	if inc := opts.Incumbent; inc != nil && len(inc) == p.lp.NumVariables() {
		ropts.Incumbent = pre.project(inc)
	} else {
		ropts.Incumbent = nil
	}
	sol, err := red.solveTree(ctx, ropts)
	if err != nil {
		return nil, err
	}
	if sol.X != nil {
		sol.X = pre.restore(sol.X)
		sol.Objective += pre.constant
		sol.Bound += pre.constant
	}
	sol.PresolveRemoved = pre.removed
	return sol, nil
}

// solveTree is the branch-and-bound engine over the presolved problem:
// best-first over chain nodes, with the root-strengthening pipeline —
// cutting planes, reduced-cost fixing, strong-branching-initialized
// pseudo-cost branching — run before and during the search.
//
// p is the presolved problem, private to this solve, so the node
// bounds the search installs need no restoring.
func (p *Problem) solveTree(ctx context.Context, opts Options) (*Solution, error) {
	s := &search{
		p:    p,
		ctx:  ctx,
		opts: opts,
	}
	// base starts as the root bounds; reduced-cost fixing tightens it.
	s.base = make([][2]float64, p.lp.NumVariables())
	for v := range s.base {
		lo, hi := p.lp.Bounds(lp.Var(v))
		s.base[v] = [2]float64{lo, hi}
	}
	s.worst = math.Inf(1)
	if p.sense == lp.Maximize {
		s.worst = math.Inf(-1)
	}
	s.incObj = s.worst
	s.bestBound = -s.worst // trivial bound until the root relaxation solves
	s.interrupted = lp.Optimal

	if opts.Incumbent != nil {
		if obj, ok := p.evaluateIncumbent(opts.Incumbent); ok {
			s.incumbent = roundIntegers(opts.Incumbent, p.integer)
			s.incObj = obj
		}
	}

	s.q = &nodeQueue{min: p.sense == lp.Minimize}

	if ctx.Err() != nil {
		s.interrupted = lp.Canceled
		return s.finish(), nil
	}
	if done, err := s.root(); done || err != nil {
		if err != nil {
			return nil, err
		}
		return s.finish(), nil
	}

	for s.q.Len() > 0 {
		if s.st.Nodes >= opts.MaxNodes {
			break
		}
		if ctx.Err() != nil {
			s.interrupted = lp.Canceled
			break
		}
		// Strong branching is lazy: only a tree that proved nontrivial
		// pays for root probes (small searches finish before the
		// threshold and skip the 2×strongBranchCandidates LPs).
		if !s.probed && s.st.Nodes >= strongBranchTrigger {
			s.probed = true
			s.applyBase()
			s.strongBranchInit(s.rootSol)
		}
		nd := heap.Pop(s.q).(*node)
		// Bound-based pruning against the incumbent.
		if s.incumbent != nil && !s.better(nd.relax, s.incObj+s.pruneSlack()) {
			continue
		}
		// Apply node bounds (base overlaid with the branch-delta
		// chain); a chain made empty by later reduced-cost fixing
		// prunes the node outright.
		if !s.applyNodeBounds(nd) {
			continue
		}
		s.st.Nodes++

		sol, err := p.lp.SolveContextFrom(ctx, nd.basis)
		if err != nil {
			return nil, fmt.Errorf("mip: node relaxation: %w", err)
		}
		s.addEffort(sol)
		if sol.Warm {
			s.st.WarmStarts++
		}
		if sol.Status == lp.Canceled || sol.Status == lp.IterLimit {
			// The node's subtree was not explored: push it back so its
			// relaxation stays part of the reported open bound, and keep
			// whatever incumbent exists instead of discarding it.
			s.interrupted = sol.Status
			heap.Push(s.q, nd)
			break
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// Unbounded below the (bounded) root: numerically impossible
			// for the paper's models; treat as exhausted.
			continue
		}
		s.pc.observe(int(nd.branchVar), nd.up, s.worsen(sol.Objective, nd.relax), nd.frac)
		if s.incumbent != nil && !s.better(sol.Objective, s.incObj+s.pruneSlack()) {
			continue
		}

		branchVar := p.pickBranch(sol.X, s.pc)
		if branchVar < 0 {
			// Integer feasible.
			s.foundIncumbent(sol.X, sol.Objective)
			continue
		}
		s.pushChildren(nd, branchVar, sol)
	}
	return s.finish(), nil
}

// search carries the state of one branch-and-bound run.
type search struct {
	p    *Problem
	ctx  context.Context
	opts Options
	q    *nodeQueue

	base  [][2]float64 // root bounds, tightened by reduced-cost fixing
	worst float64

	incumbent []float64
	incObj    float64
	bestBound float64

	// st accumulates the effort counters; finish sets its Bound.
	st core.SolveStats
	// interrupted records why the search stopped before exhausting the
	// tree: lp.Canceled (context fired) or lp.IterLimit (node budget or
	// a capped node relaxation). lp.Optimal means no interruption.
	interrupted   lp.Status
	rootUnbounded bool

	// rootSol is retained for the lazy strong-branching probes; probed
	// flips once they have run.
	rootSol *lp.Solution
	probed  bool

	pc *pseudoCosts

	// Reduced-cost fixing state from the final root LP (min-form).
	rootDj   []float64
	rootMin  float64
	rootSide []int8 // 1 = nonbasic at lower, 2 = at upper
	fixedVar []bool

	chainBuf []*node
}

func (s *search) better(a, b float64) bool {
	if s.p.sense == lp.Minimize {
		return a < b
	}
	return a > b
}

// worsen returns how much child degrades over parent in the worsening
// direction (always >= 0 up to LP noise).
func (s *search) worsen(child, parent float64) float64 {
	d := child - parent
	if s.p.sense == lp.Maximize {
		d = -d
	}
	if d < 0 {
		return 0
	}
	return d
}

// gapSlack is the total pruning slack: the absolute gap plus the
// relative gap scaled by the incumbent magnitude.
func (s *search) gapSlack() float64 {
	g := s.opts.Gap
	if s.opts.RelGap > 0 && s.incumbent != nil {
		g += s.opts.RelGap * math.Abs(s.incObj)
	}
	return g
}

// pruneSlack converts the gap into a signed slack for the "not better
// than incumbent" test.
func (s *search) pruneSlack() float64 {
	if s.p.sense == lp.Minimize {
		return -s.gapSlack()
	}
	return s.gapSlack()
}

func (s *search) addEffort(sol *lp.Solution) {
	s.st.Pivots += sol.Iterations
	s.st.Refactorizations += sol.Refactorizations
	s.st.DevexResets += sol.DevexResets
}

// minForm converts a user-sense objective value to minimization form.
func (s *search) minForm(v float64) float64 {
	if s.p.sense == lp.Maximize {
		return -v
	}
	return v
}

// applyBase installs the root bounds on every variable.
func (s *search) applyBase() {
	for v, b := range s.base {
		s.p.lp.SetBounds(lp.Var(v), b[0], b[1])
	}
}

// applyNodeBounds installs base plus the node's branch-delta chain
// (leaf-most delta wins, each intersected with base). It reports false
// when a delta is emptied by later reduced-cost fixing — the node's
// subtree then holds no improving solution and is pruned.
func (s *search) applyNodeBounds(nd *node) bool {
	s.applyBase()
	s.chainBuf = s.chainBuf[:0]
	for c := nd; c != nil && c.branchVar >= 0; c = c.parent {
		s.chainBuf = append(s.chainBuf, c)
	}
	for i := len(s.chainBuf) - 1; i >= 0; i-- {
		c := s.chainBuf[i]
		lo, hi := c.lo, c.hi
		b := s.base[c.branchVar]
		if lo < b[0] {
			lo = b[0]
		}
		if hi > b[1] {
			hi = b[1]
		}
		if lo > hi {
			return false
		}
		s.p.lp.SetBounds(c.branchVar, lo, hi)
	}
	return true
}

// foundIncumbent installs a better integer-feasible point and re-runs
// reduced-cost fixing against the improved cutoff.
func (s *search) foundIncumbent(x []float64, obj float64) {
	if s.incumbent != nil && !s.better(obj, s.incObj) {
		return
	}
	s.incumbent = roundIntegers(x, s.p.integer)
	s.incObj = obj
	s.reducedCostFix()
}

// pushChildren enqueues the floor/ceil children of branching on v.
func (s *search) pushChildren(nd *node, v lp.Var, sol *lp.Solution) {
	val := sol.X[v]
	lo, hi := s.p.lp.Bounds(v)
	frac := val - math.Floor(val)
	// With non-integral user bounds a rounded child range can be
	// empty; such a child is simply infeasible and not enqueued.
	if dn := math.Floor(val); dn >= lo {
		heap.Push(s.q, &node{parent: nd, branchVar: v, lo: lo, hi: dn,
			relax: sol.Objective, depth: nd.depth + 1, basis: sol.Basis(), up: false, frac: frac})
	}
	if up := math.Ceil(val); up <= hi {
		heap.Push(s.q, &node{parent: nd, branchVar: v, lo: up, hi: hi,
			relax: sol.Objective, depth: nd.depth + 1, basis: sol.Basis(), up: true, frac: frac})
	}
}

// root solves the root relaxation, runs the cutting-plane loop and
// reduced-cost fixing, and sets up the pseudo-cost state. It returns
// done == true when the search is already decided (infeasible,
// unbounded, interrupted, integral root, or root bound dominated by
// the incumbent).
func (s *search) root() (done bool, err error) {
	p := s.p
	p.lp.SetExtractDuals(true)
	defer p.lp.SetExtractDuals(false)

	s.st.Nodes++
	sol, err := p.lp.SolveContext(s.ctx)
	if err != nil {
		return false, fmt.Errorf("mip: root relaxation: %w", err)
	}
	s.addEffort(sol)
	switch sol.Status {
	case lp.Canceled, lp.IterLimit:
		s.interrupted = sol.Status
		return true, nil
	case lp.Infeasible:
		return true, nil
	case lp.Unbounded:
		s.rootUnbounded = true
		return true, nil
	}
	s.bestBound = sol.Objective

	if s.incumbent != nil && !s.better(sol.Objective, s.incObj+s.pruneSlack()) {
		// The incumbent already matches the root bound: exhausted.
		return true, nil
	}

	sol = s.cutLoop(sol)
	if s.interrupted != lp.Optimal {
		return true, nil
	}
	s.captureRootDuals(sol)
	s.reducedCostFix()

	// Pseudo-cost state; strong-branching initialization is lazy
	// (triggered by the tree loop at strongBranchTrigger nodes) so
	// small searches never pay for the probes.
	s.pc = newPseudoCosts(p.lp.NumVariables())
	s.rootSol = sol
	branchVar := p.pickBranch(sol.X, s.pc)
	if branchVar < 0 {
		s.foundIncumbent(sol.X, sol.Objective)
		return true, nil
	}
	rootNode := &node{branchVar: -1, relax: sol.Objective}
	s.pushChildren(rootNode, branchVar, sol)
	return false, nil
}

// captureRootDuals stores the min-form reduced costs and bound sides of
// the final root LP for (repeated) reduced-cost fixing.
func (s *search) captureRootDuals(sol *lp.Solution) {
	n := s.p.lp.NumVariables()
	s.rootDj = make([]float64, n)
	s.rootSide = make([]int8, n)
	s.fixedVar = make([]bool, n)
	s.rootMin = s.minForm(sol.Objective)
	for j := 0; j < n; j++ {
		dj := sol.ReducedCosts[j]
		if s.p.sense == lp.Maximize {
			dj = -dj
		}
		s.rootDj[j] = dj
		lo, hi := s.base[j][0], s.base[j][1]
		x := sol.X[j]
		switch {
		case x <= lo+1e-7:
			s.rootSide[j] = 1
		case !math.IsInf(hi, 1) && x >= hi-1e-7:
			s.rootSide[j] = 2
		}
	}
}

// reducedCostFix permanently fixes integer variables whose root reduced
// cost proves that moving them off their root bound cannot beat the
// incumbent cutoff. The test mirrors the tree's pruning rule exactly,
// so fixing can drop alternate optima but never the objective value.
func (s *search) reducedCostFix() {
	if s.rootDj == nil || s.incumbent == nil {
		return
	}
	cutoff := s.minForm(s.incObj) - s.gapSlack()
	for j, isInt := range s.p.integer {
		if !isInt || s.fixedVar[j] {
			continue
		}
		lo, hi := s.base[j][0], s.base[j][1]
		if hi-lo < 1-1e-9 {
			continue
		}
		dj := s.rootDj[j]
		switch s.rootSide[j] {
		case 1: // nonbasic at lower; moving up one unit costs dj
			if dj > epsFix && s.rootMin+dj >= cutoff {
				s.base[j] = [2]float64{lo, lo}
				s.fixedVar[j] = true
				s.st.VarsFixed++
			}
		case 2: // nonbasic at upper; moving down one unit costs -dj
			if dj < -epsFix && s.rootMin-dj >= cutoff {
				s.base[j] = [2]float64{hi, hi}
				s.fixedVar[j] = true
				s.st.VarsFixed++
			}
		}
	}
}

// epsFix is the minimum reduced-cost magnitude considered for fixing.
const epsFix = 1e-9

// finish assembles the Solution exactly as the historical tree did.
func (s *search) finish() *Solution {
	if s.rootUnbounded {
		return &Solution{Status: lp.Unbounded, SolveStats: s.st}
	}
	// On an early stop the best-first queue's top relaxation is the best
	// still-open bound; combine it with the proven root bound, and never
	// claim a bound beyond the incumbent's own value.
	if s.q.Len() > 0 {
		open := s.q.items[0].relax
		if s.better(s.bestBound, open) {
			s.bestBound = open
		}
		if s.incumbent != nil && s.better(s.incObj, s.bestBound) {
			s.bestBound = s.incObj
		}
	}
	if s.incumbent == nil {
		st := lp.Infeasible
		switch {
		case s.interrupted != lp.Optimal:
			st = s.interrupted
		case s.st.Nodes >= s.opts.MaxNodes:
			st = lp.IterLimit
		}
		return &Solution{Status: st, SolveStats: s.st}
	}
	st := lp.Optimal
	switch {
	case s.interrupted != lp.Optimal:
		// Even with an empty queue the interrupted node may hide better
		// solutions, so an interrupted search never claims optimality.
		st = s.interrupted
	case s.q.Len() > 0 && s.st.Nodes >= s.opts.MaxNodes:
		st = lp.IterLimit
	default:
		// The tree is exhausted: the incumbent is optimal within the
		// pruning gap, so with a caller-set gap the proven bound is
		// incObj − slack (minimize). Under the near-zero conservative
		// default this is optimality proper and Bound = Objective.
		s.bestBound = s.incObj
		if s.p.opts.Gap > 0 || s.p.opts.RelGap > 0 {
			s.bestBound = s.incObj + s.pruneSlack()
		}
	}
	s.st.Bound = s.bestBound
	return &Solution{Status: st, Objective: s.incObj, X: s.incumbent, SolveStats: s.st}
}

// evaluateIncumbent validates a warm-start solution: feasible for the
// LP and integral on integer variables.
func (p *Problem) evaluateIncumbent(x []float64) (float64, bool) {
	if len(x) != p.lp.NumVariables() {
		return 0, false
	}
	for j, isInt := range p.integer {
		if isInt && math.Abs(x[j]-math.Round(x[j])) > 1e-6 {
			return 0, false
		}
	}
	return p.lp.Evaluate(x)
}

// pickBranch returns the fractional integer variable with the best
// pseudo-cost score, or -1 when x is integer feasible. At the root,
// before anything has been observed, every estimate is 1 and the
// product rule picks the most fractional variable.
func (p *Problem) pickBranch(x []float64, pc *pseudoCosts) lp.Var {
	best := lp.Var(-1)
	bestScore := -1.0
	for j, isInt := range p.integer {
		if !isInt {
			continue
		}
		frac := x[j] - math.Floor(x[j])
		if frac < intTol || frac > 1-intTol {
			continue
		}
		if score := pc.score(j, frac); score > bestScore {
			bestScore = score
			best = lp.Var(j)
		}
	}
	return best
}

func roundIntegers(x []float64, integer []bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for j, isInt := range integer {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
