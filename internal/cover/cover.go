// Package cover implements Minimum Set Cover and Minimum Partial
// (weighted) Cover: the greedy approximation the paper's Theorem 1 maps
// Passive Monitoring onto, and an exact combinatorial branch-and-bound
// used as a scalable alternative to the MIP on large instances.
//
// Terminology follows §4.2 of the paper: items (elements) are traffics,
// sets are links; choosing a set covers all elements it contains, and
// PPM(k) asks for the fewest sets covering elements of total weight at
// least k times the whole.
package cover

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/core"
	"repro/internal/lp"
)

// Instance is a (partial) set cover instance. Elements are 0..NumElements-1.
type Instance struct {
	NumElements int
	// Weights holds one weight per element; nil means unit weights.
	Weights []float64
	// Sets lists, for each set, the elements it covers. Element ids out
	// of range are rejected by Validate.
	Sets [][]int
}

// Validate checks index ranges and weight consistency.
func (in Instance) Validate() error {
	if in.NumElements < 0 {
		return fmt.Errorf("cover: negative element count %d", in.NumElements)
	}
	if in.Weights != nil && len(in.Weights) != in.NumElements {
		return fmt.Errorf("cover: %d weights for %d elements", len(in.Weights), in.NumElements)
	}
	for i, w := range in.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("cover: element %d has bad weight %g", i, w)
		}
	}
	for si, s := range in.Sets {
		for _, e := range s {
			if e < 0 || e >= in.NumElements {
				return fmt.Errorf("cover: set %d references element %d out of range [0,%d)", si, e, in.NumElements)
			}
		}
	}
	return nil
}

// weight returns the weight of element e.
func (in Instance) weight(e int) float64 {
	if in.Weights == nil {
		return 1
	}
	return in.Weights[e]
}

// TotalWeight returns the sum of all element weights (the paper's V).
func (in Instance) TotalWeight() float64 {
	if in.Weights == nil {
		return float64(in.NumElements)
	}
	t := 0.0
	for _, w := range in.Weights {
		t += w
	}
	return t
}

// coverTol is the feasibility tolerance on accumulated covered weight:
// absolute near zero, relative at scale. Covered weight is a float sum
// whose order differs between the greedy, the search, and the caller's
// target computation, so it drifts by O(n·ulp·total) — on a
// 2000-element instance with total weight ~10⁴ that is ~1e-9, and a
// fixed absolute 1e-12 would misreport a complete cover of a
// large-volume instance as infeasible. 1e-9 relative matches the
// feasibility check callers apply to the returned fraction.
func coverTol(target float64) float64 { return 1e-9 * (1 + math.Abs(target)) }

// bitset is a fixed-size bitmap over elements.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) unset(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) clone() bitset  { c := make(bitset, len(b)); copy(c, b); return c }

// subsetOf reports whether every bit of b is also set in other.
func (b bitset) subsetOf(other bitset) bool {
	for i, w := range b {
		if w&^other[i] != 0 {
			return false
		}
	}
	return true
}
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Result is the outcome of a cover computation.
type Result struct {
	// Chosen lists the selected set indices in selection order.
	Chosen []int
	// Covered is the total weight of the covered elements.
	Covered float64
	// Feasible is false when even choosing every set cannot reach the
	// target.
	Feasible bool
	// Exact is true when the result is provably optimal.
	Exact bool
	// SolveStats carries the exact solver's effort counters (all zero
	// for the greedies):
	//   - Nodes, the branch-and-bound nodes. With Workers > 1 the total
	//     is schedule-dependent for subtrees the shared incumbent
	//     aborted early; at Workers <= 1 it is exactly reproducible.
	//   - SubtreeTasks, the frontier subtree tasks dispatched over the
	//     worker pool (0 when the search closed in the serial burn-in).
	//     The frontier is worker-count independent.
	//   - Steals, the subtree tasks executed by a worker other than
	//     their round-robin home worker (0 for serial searches).
	//   - DominancePrunes, the sets excluded by in-search residual
	//     dominance (exclude branches drop every candidate whose
	//     residual coverage the branched set contains). Schedule-
	//     dependent like Nodes when Workers > 1.
	// The search solves no LP, so Pivots, WarmStarts and VarsFixed
	// stay 0.
	core.SolveStats
}

// GreedyPartial runs the classical greedy for Minimum Partial Cover: it
// repeatedly selects the set with the largest uncovered weight until the
// covered weight reaches target. This is the (ln|D| − ln ln|D| + Θ(1))-
// approximation the paper cites from Slavík [19, 20].
func GreedyPartial(in Instance, target float64) Result {
	if err := in.Validate(); err != nil {
		panic(err)
	}
	covered := newBitset(in.NumElements)
	res := Result{Feasible: true}
	used := make([]bool, len(in.Sets))
	tol := coverTol(target)
	for res.Covered < target-tol {
		best, bestGain := -1, 0.0
		for si, s := range in.Sets {
			if used[si] {
				continue
			}
			gain := 0.0
			for _, e := range s {
				if !covered.get(e) {
					gain += in.weight(e)
				}
			}
			if gain > bestGain {
				best, bestGain = si, gain
			}
		}
		if best < 0 {
			res.Feasible = false
			return res
		}
		used[best] = true
		res.Chosen = append(res.Chosen, best)
		for _, e := range in.Sets[best] {
			if !covered.get(e) {
				covered.set(e)
				res.Covered += in.weight(e)
			}
		}
	}
	return res
}

// Greedy runs GreedyPartial with the full total weight as target, i.e.
// the classical greedy for Minimum Set Cover.
func Greedy(in Instance) Result {
	return GreedyPartial(in, in.TotalWeight())
}

// ExactOptions tunes the exact branch-and-bound.
type ExactOptions struct {
	// MaxNodes caps the search; 0 means 5,000,000. When exceeded the
	// best incumbent is returned with Exact=false. Parallel searches
	// split the remaining budget evenly across subtree tasks (with a
	// small per-task floor), so the total stays comparable.
	MaxNodes int
	// Workers bounds the subtree-task worker pool of the parallel
	// phase; <= 1 runs the identical algorithm serially (the oracle:
	// the returned cover is byte-identical for any worker count).
	Workers int
}

// Exact solves Minimum Partial Cover exactly with branch and bound:
// depth-first search that always branches on the set with the largest
// residual coverage (include first, giving a greedy dive for early
// incumbents) and prunes with an optimistic additive bound and, on
// full covers, a disjoint-family bound.
//
// Before searching it runs a kernelization fixpoint: dominated sets
// (residual coverage contained in another's) are excluded, and for
// full covers dominated elements are dropped and unique-coverer sets
// forced in, iterating until nothing changes. In-search, every exclude
// branch also drops the candidates the branched set residually
// dominates (which breaks the symmetry on interchangeable columns:
// only the lowest-index permutation of residual-identical sets is
// explored).
//
// The search itself runs in three deterministic value phases
// (DESIGN.md §4a): a serial burn-in of burnInNodes nodes closes easy
// instances outright; a surviving search is expanded serially to a
// fixed-depth frontier of independent subtree tasks; and the tasks run
// on opts.Workers workers with a shared atomic incumbent used only for
// whole-subtree aborts. The merged result is chosen by (cover size,
// task index), so the returned cover is byte-identical for any worker
// count — one worker is the oracle the parallel runs are compared
// against. A reconstruction phase then returns the cover the plain
// serial search finds.
//
// When ctx fires mid-search the best incumbent found so far by any
// phase or worker (at worst the greedy warm start) is returned with
// Exact = false.
func Exact(ctx context.Context, in Instance, target float64, opts ExactOptions) Result {
	if err := in.Validate(); err != nil {
		panic(err)
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 5_000_000
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// Start from the greedy incumbent: it bounds the search depth.
	greedy := GreedyPartial(in, target)
	if !greedy.Feasible {
		return Result{Feasible: false, Exact: true}
	}
	if target <= 1e-12 {
		return Result{Feasible: true, Exact: true}
	}
	if ctx.Err() != nil {
		// Canceled before the search started: the greedy warm start is
		// the incumbent.
		greedy.Exact = false
		return greedy
	}

	fullCover := target >= in.TotalWeight()-1e-9
	// Merge elements with identical covering sets (their coverage always
	// moves together, so one weighted representative suffices at any k).
	searchIn, searchTarget := mergeSignatures(in, target)

	s := &exactSearch{
		ctx:           ctx,
		in:            searchIn,
		target:        searchTarget,
		tol:           coverTol(searchTarget),
		best:          append([]int(nil), greedy.Chosen...),
		bestLen:       len(greedy.Chosen),
		frontierDepth: -1,
	}
	excluded := make([]bool, len(searchIn.Sets))
	covered := newBitset(searchIn.NumElements)
	forced := s.presolve(excluded, covered, fullCover)
	if fullCover {
		s.prepareDisjointBound(excluded, covered)
	}
	coveredW := 0.0
	for e := 0; e < s.in.NumElements; e++ {
		if covered.get(e) {
			coveredW += s.in.weight(e)
		}
	}
	s.prepareGains(covered, excluded)

	s.runValuePhases(opts.MaxNodes, workers, covered, coveredW, forced)
	if s.capped || s.ctx.Err() != nil {
		// Capped or canceled: the best incumbent with Exact=false.
		return s.resultOn(in)
	}

	// The value phases proved optimality: opt is the optimum size.
	opt := s.bestLen
	if opt >= len(greedy.Chosen) {
		// The greedy cover is itself optimal. The search only ever
		// adopts strictly shorter covers, so s.best IS greedy.Chosen:
		// already canonical, no reconstruction needed.
		return s.resultOn(in)
	}

	// Reconstruction phase: re-derive the RETURNED cover from
	// (instance, opt) alone, so it is the cover the plain serial search
	// returns. The value phases need not return that one: the frontier
	// walk accepts a shallow cover of optimum size before the subtree
	// tasks that precede it in search order run, and a task holding a
	// different cover of that size does not replace it. The fresh
	// serial search runs with the proven optimum as a perfect bound:
	// the first accepted cover has exactly opt sets and stops the
	// search. Bounds only prune, never reorder, so that cover is the
	// first size-opt one in the search's own branching order.
	r := &exactSearch{
		ctx:     ctx,
		in:      s.in,
		target:  s.target,
		tol:     s.tol,
		best:    append([]int(nil), greedy.Chosen...),
		bestLen: opt + 1,
		maxN:    opts.MaxNodes,
		goal:    opt,

		setMasks:     s.setMasks,
		elemCoverers: s.elemCoverers,
		elemOrder:    s.elemOrder,
		permPos:      s.permPos,
		permCovered:  s.permCovered,
		gains:        s.gains,
		elemSets:     s.elemSets,

		searchScratch: s.searchScratch,
		frontierDepth: -1,
	}
	r.search(covered, coveredW, forced)
	if r.goalMet {
		res := r.resultOn(in)
		res.Add(s.st)
		return res
	}
	if ctx.Err() != nil {
		// Canceled mid-reconstruction: degrade to the value phase's
		// incumbent — an optimal cover, conservatively reported
		// Exact=false like every canceled search.
		s.capped = true
		res := s.resultOn(in)
		res.Add(r.st)
		return res
	}
	// The reconstruction exhausted its own node budget before accepting
	// a cover (pathological: its pruning bound is perfect). Fall back to
	// the greedy cover and report Exact=false: the optimum value was
	// proven but the canonical witness was not reproduced within budget.
	g := greedy
	g.Exact = false
	g.SolveStats = s.st
	g.Add(r.st)
	return g
}

// runValuePhases runs the three search phases (DESIGN.md §4a) that
// prove the optimum value (or exhaust the budget): serial burn-in,
// frontier expansion, parallel subtrees. On return either s.capped
// (budget/cancel) or optimality is proven with s.bestLen the optimum.
func (s *exactSearch) runValuePhases(maxNodes, workers int, covered bitset, coveredW float64, forced []int) {
	// Phase 1 — serial burn-in: the serial search with a fixed node
	// budget. Most instances close here; the budget (not a wall clock)
	// keeps the phase boundary deterministic.
	burnIn := burnInNodes
	if burnIn > maxNodes {
		burnIn = maxNodes
	}
	s.maxN = burnIn
	s.search(covered, coveredW, forced)
	if !s.capped || s.ctx.Err() != nil || burnIn >= maxNodes {
		// Closed, canceled, or the real node budget is exhausted.
		return
	}
	s.capped = false

	// Phase 2 — frontier expansion: re-walk the tree serially, cutting
	// it at a fixed depth into independent subtree tasks. The frontier
	// depends only on deterministic state (never on worker count), and
	// a second, deeper pass splits further when the first one yields
	// too few tasks to balance.
	s.maxN = maxNodes
	for _, d := range []int{frontierDepth, frontierDepth + 4} {
		s.tasks, s.frontierDepth, s.depth = nil, d, 0
		s.search(covered, coveredW, forced)
		if s.capped || s.ctx.Err() != nil || len(s.tasks) >= frontierMinTasks {
			break
		}
	}
	s.frontierDepth = -1
	if len(s.tasks) == 0 || s.capped || s.ctx.Err() != nil {
		// The depth-limited walk closed (or capped) the search itself.
		return
	}

	// Phase 3 — parallel subtree search with deterministic merge.
	s.runSubtrees(workers, maxNodes)
}

// frontierDepth is the branching depth at which the tree is cut into
// subtree tasks; frontierMinTasks is the task count under which a
// second, deeper expansion pass is attempted. Both are worker-count
// independent: the frontier (and hence the merge) must not change with
// parallelism.
const (
	frontierDepth    = 6
	frontierMinTasks = 16
	minTaskBudget    = 2048
)

// presolve runs the kernelization fixpoint over the classical set-cover
// reductions: dominated sets are excluded (always), and for full covers
// dominated elements are dropped and unique-coverer sets forced in,
// until a round changes nothing. Each rule can enable the others —
// forcing a set covers elements, which shrinks residual coverages,
// which creates new dominations — so a single pass (the historical
// behaviour) leaves kernel left on the table. excluded and covered are
// mutated in place; s.in/s.target are rebound as elements drop; the
// forced set indices are returned in deterministic discovery order.
func (s *exactSearch) presolve(excluded []bool, covered bitset, fullCover bool) []int {
	var forced []int
	inForced := make([]bool, len(s.in.Sets))
	for {
		changed := excludeDominatedSets(s.in, excluded, covered)
		if fullCover {
			if reduced, reducedTarget, ch := dropDominatedElements(s.in, excluded, covered); ch {
				s.in, s.target = reduced, reducedTarget
				changed = true
			}
			if forceUniqueCoverers(s.in, excluded, covered, inForced, &forced) {
				changed = true
			}
		}
		if !changed {
			return forced
		}
	}
}

// excludeDominatedSets marks sets whose residual coverage (positive-
// weight, not-yet-covered elements) is contained in another set's (ties
// broken towards lower indices). Dropping them is sound for any
// (partial) cover: the dominating set can always replace the dominated
// one without losing covered weight. Reports whether any new set was
// excluded.
func excludeDominatedSets(in Instance, excluded []bool, covered bitset) bool {
	n := len(in.Sets)
	masks := make([]bitset, n)
	for i, s := range in.Sets {
		if excluded[i] {
			continue
		}
		masks[i] = newBitset(in.NumElements)
		for _, e := range s {
			if !covered.get(e) && in.weight(e) > 0 {
				masks[i].set(e)
			}
		}
	}
	changed := false
	for i := 0; i < n; i++ {
		if excluded[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || excluded[j] || masks[j] == nil {
				continue
			}
			if masks[i].subsetOf(masks[j]) {
				// Equal sets: keep the lower index only.
				if masks[j].subsetOf(masks[i]) && i < j {
					continue
				}
				excluded[i] = true
				changed = true
				break
			}
		}
	}
	return changed
}

// dropDominatedElements (full cover only) removes elements whose
// covering-set list contains another element's: any full cover covers
// the contained element through one of its sets, which also covers the
// dominating one. Removal is simulated by zeroing the dominated
// elements' weights and shrinking the target to the remaining total —
// reaching the new target then requires covering exactly the remaining
// elements, and dominance implies the dropped ones come along for free.
// Both sides of the rule are restricted to still-uncovered positive-
// weight elements: the argument needs the dominator to be an element
// the search is still obligated to cover through a LIVE set — an
// already-covered element owes nothing (its forced coverer may itself
// be excluded, leaving it an empty coverer list that would vacuously
// "dominate" everything). Reports whether the call dropped any element
// that still had positive weight (so the presolve fixpoint can iterate
// to quiescence).
func dropDominatedElements(in Instance, excluded []bool, covered bitset) (Instance, float64, bool) {
	coverers := make([]bitset, in.NumElements)
	for e := range coverers {
		coverers[e] = newBitset(len(in.Sets))
	}
	for si, s := range in.Sets {
		if excluded[si] {
			continue
		}
		for _, e := range s {
			coverers[e].set(si)
		}
	}
	counts := make([]int, in.NumElements)
	for e, c := range coverers {
		counts[e] = c.count()
	}
	live := func(e int) bool { return !covered.get(e) && !lp.StructZero(in.weight(e)) }
	drop := make([]bool, in.NumElements)
	for u := 0; u < in.NumElements; u++ {
		if drop[u] || !live(u) {
			continue
		}
		for v := 0; v < in.NumElements; v++ {
			// A v with more coverers than u cannot have them contained
			// in u's: skip it before the word-by-word test.
			if u == v || counts[v] > counts[u] || drop[v] || !live(v) {
				continue
			}
			if coverers[v].subsetOf(coverers[u]) {
				if coverers[u].subsetOf(coverers[v]) && u < v {
					continue // equal: keep the lower index
				}
				drop[u] = true
				break
			}
		}
	}
	weights := make([]float64, in.NumElements)
	target := 0.0
	changed := false
	for e := 0; e < in.NumElements; e++ {
		if drop[e] {
			if !lp.StructZero(in.weight(e)) {
				changed = true
			}
			continue
		}
		weights[e] = in.weight(e)
		target += weights[e]
	}
	return Instance{NumElements: in.NumElements, Weights: weights, Sets: in.Sets}, target, changed
}

// forceUniqueCoverers (full cover only) repeatedly includes sets that
// are the sole remaining coverer of some element, marking the elements
// they cover. Newly forced indices are appended to *forced (inForced
// carries the already-forced flags across presolve rounds); reports
// whether anything new was forced.
func forceUniqueCoverers(in Instance, excluded []bool, covered bitset, inForced []bool, forced *[]int) bool {
	coverers := make([][]int, in.NumElements)
	for si, s := range in.Sets {
		if excluded[si] {
			continue
		}
		for _, e := range s {
			coverers[e] = append(coverers[e], si)
		}
	}
	any := false
	for changed := true; changed; {
		changed = false
		for e := 0; e < in.NumElements; e++ {
			if covered.get(e) || lp.StructZero(in.weight(e)) {
				continue // dropped or already-covered elements force nothing
			}
			if len(coverers[e]) == 1 {
				si := coverers[e][0]
				if !inForced[si] {
					inForced[si] = true
					*forced = append(*forced, si)
					for _, e2 := range in.Sets[si] {
						covered.set(e2)
					}
					changed = true
					any = true
				}
			}
		}
	}
	return any
}

type exactSearch struct {
	ctx     context.Context
	in      Instance
	target  float64
	tol     float64 // coverTol(target), shared by every phase and task
	best    []int
	bestLen int
	maxN    int
	capped  bool

	// st counts the search's effort. Nodes and DominancePrunes count
	// in every search and task clone; SubtreeTasks and Steals only in
	// the root search.
	st core.SolveStats

	// goal, when positive, is the proven optimum the reconstruction
	// search re-derives a cover for: its first cover of at most goal
	// sets stops the search, and goalMet records that it did.
	goal    int
	goalMet bool

	// In-search dominance state: setMasks[si] is set si's positive-
	// weight element bitmap (nil for root-excluded sets).
	setMasks []bitset

	// Frontier expansion state: with frontierDepth >= 0 the search
	// stops descending at that branching depth and snapshots the node
	// as an independent subtree task instead (parallel.go). depth is
	// the current branching depth; tasks collects the frontier in DFS
	// (= task index) order.
	frontierDepth int
	depth         int
	tasks         []*coverTask

	// Parallel subtree coordination (task clones only): pubG is the
	// shared atomic incumbent length — improvements are published
	// immediately, but it is read ONLY for the whole-subtree abort
	// taskLB > pubG (any solution in this subtree is provably no
	// better than a published one, so dropping the subtree cannot
	// change the deterministic merge; see DESIGN.md §4a). aborted
	// unwinds the task like capped but without voiding exactness.
	pubG    *atomicMin
	taskLB  int
	aborted bool

	// Disjoint-elements bound state (full covers only): per-element
	// covering-set bitmaps in a processing order of increasing coverer
	// count. Elements pairwise sharing no covering set each require a
	// distinct set, so the size of such a family lower-bounds the
	// remaining cover.
	elemCoverers []bitset
	elemOrder    []int
	permPos      []int32 // element → elemOrder position (-1 = untracked)
	permCovered  bitset  // covered, permuted into elemOrder positions

	// Incremental residual-gain state: gains[si] is the uncovered
	// weight of set si, updated in place as branches cover elements or
	// exclude sets (and restored exactly on backtrack from the gain
	// snapshot the branch pushed) instead of being recomputed from
	// every set at every node.
	gains    []float64
	elemSets [][]int32 // per element: root-non-excluded sets covering it

	searchScratch
}

// searchScratch is a search's reusable working memory. Every branch
// pops what it pushed, and the buffers are rewritten before each read,
// so one scratch serves any number of searches run one after another:
// the reconstruction search inherits the root's, and runSubtrees lends
// each worker's to every task that worker runs.
type searchScratch struct {
	// saved is the gain-snapshot stack: each open branch pushes a copy
	// of gains (one float per set) and copies it back on return, which
	// restores the exact bits whatever the branch changed below.
	saved []float64
	// flip lists the elements the open include branches newly covered.
	flip []int32
	// scratch is boundAndBranch's selection buffer of the largest gains.
	scratch []float64
	// disjointUsed is disjointBound's family-coverer union.
	disjointUsed bitset
}

// prepareGains builds the per-element coverer lists, the initial
// residual gains (everything after the root reductions and forced
// inclusions), and the per-set positive-weight element bitmaps the
// in-search dominance rule tests containment on.
func (s *exactSearch) prepareGains(covered bitset, excluded []bool) {
	n := s.in.NumElements
	s.elemSets = make([][]int32, n)
	s.gains = make([]float64, len(s.in.Sets))
	s.setMasks = make([]bitset, len(s.in.Sets))
	for si, set := range s.in.Sets {
		if excluded[si] {
			continue
		}
		m := newBitset(n)
		s.setMasks[si] = m
		g := 0.0
		for _, e := range set {
			s.elemSets[e] = append(s.elemSets[e], int32(si))
			if !covered.get(e) {
				g += s.in.weight(e)
			}
			if s.in.weight(e) > 0 {
				m.set(e)
			}
		}
		s.gains[si] = g
	}
}

// prepareDisjointBound precomputes the per-element covering-set bitmaps
// over non-excluded sets and a fewest-coverers-first element order.
// covered seeds the permuted mirror with the already-covered elements
// (forced unique coverers).
func (s *exactSearch) prepareDisjointBound(excluded []bool, covered bitset) {
	n := s.in.NumElements
	s.elemCoverers = make([]bitset, n)
	counts := make([]int, n)
	for e := 0; e < n; e++ {
		s.elemCoverers[e] = newBitset(len(s.in.Sets))
	}
	for si, set := range s.in.Sets {
		if excluded[si] {
			continue
		}
		for _, e := range set {
			s.elemCoverers[e].set(si)
			counts[e]++
		}
	}
	for e := 0; e < n; e++ {
		if s.in.weight(e) > 0 && counts[e] > 0 {
			s.elemOrder = append(s.elemOrder, e)
		}
	}
	sort.Slice(s.elemOrder, func(a, b int) bool { return counts[s.elemOrder[a]] < counts[s.elemOrder[b]] })
	// Mirror of `covered` permuted into elemOrder positions, maintained
	// by include() and its flip stack, so the bound scan skips covered
	// elements a word at a time instead of probing them one by one.
	s.permPos = make([]int32, n)
	for e := range s.permPos {
		s.permPos[e] = -1
	}
	for pi, e := range s.elemOrder {
		s.permPos[e] = int32(pi)
	}
	s.permCovered = newBitset(len(s.elemOrder))
	for pi, e := range s.elemOrder {
		if covered.get(e) {
			s.permCovered.set(pi)
		}
	}
}

// disjointBound greedily builds a family of uncovered elements whose
// covering sets are pairwise disjoint; its size is a valid lower bound
// on the number of additional sets (each chosen set covers at most one
// family member). Using the root covering sets is conservative under
// branching exclusions, hence still valid. The build stops as soon as
// the bound reaches `enough` (the caller prunes at that point, so a
// sharper value is never needed).
func (s *exactSearch) disjointBound(enough int) int {
	if s.elemOrder == nil || enough <= 0 {
		return 0
	}
	used := s.disjointUsed
	if used == nil {
		used = newBitset(len(s.in.Sets))
		s.disjointUsed = used
	}
	for i := range used {
		used[i] = 0
	}
	bound := 0
	// Scan uncovered elements word-wise through the permuted mirror:
	// the element order is identical to the historical per-element
	// probe, so the bound value (and hence the tree) never changes.
	n := len(s.elemOrder)
	for wi, w := range s.permCovered {
		free := ^w
		if base := wi * 64; base+64 > n {
			free &= (1 << uint(n-base)) - 1
		}
		for free != 0 {
			bit := bits.TrailingZeros64(free)
			free &= free - 1
			e := s.elemOrder[wi*64+bit]
			conflict := false
			ec := s.elemCoverers[e]
			for i, cw := range ec {
				if cw&used[i] != 0 {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for i, cw := range ec {
				used[i] |= cw
			}
			bound++
			if bound >= enough {
				return bound
			}
		}
	}
	return bound
}

// burnInNodes is the serial burn-in node budget: searches that close
// within it never pay for the frontier expansion or the parallel
// machinery. A var only so tests (forceParallelPhases) can force the
// parallel phases on tiny searches; production code never writes it.
var burnInNodes = 2048

// mergeSignatures collapses elements covered by exactly the same sets
// into one element of summed weight. Sound for any coverage target:
// merged elements are covered or uncovered together.
func mergeSignatures(in Instance, target float64) (Instance, float64) {
	// One flat array holds every element's coverer bitset; the map keys
	// a signature by its raw words.
	words := (len(in.Sets) + 63) / 64
	flat := make(bitset, in.NumElements*words)
	for si, s := range in.Sets {
		for _, e := range s {
			flat[e*words:].set(si)
		}
	}
	rep := make(map[string]int, in.NumElements) // signature → new element id
	key := make([]byte, 0, 8*words)
	newID := make([]int, in.NumElements)
	var weights []float64
	for e := 0; e < in.NumElements; e++ {
		key = key[:0]
		for _, w := range flat[e*words : (e+1)*words] {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		id, ok := rep[string(key)]
		if !ok {
			id = len(weights)
			rep[string(key)] = id
			weights = append(weights, 0)
		}
		newID[e] = id
		weights[id] += in.weight(e)
	}
	if len(weights) == in.NumElements {
		return in, target // nothing merged
	}
	// stamp[id] == si+1 marks merged element id as already listed in
	// set si, keeping each id's first position.
	stamp := make([]int, len(weights))
	sets := make([][]int, len(in.Sets))
	for si, s := range in.Sets {
		for _, e := range s {
			if id := newID[e]; stamp[id] != si+1 {
				stamp[id] = si + 1
				sets[si] = append(sets[si], id)
			}
		}
	}
	return Instance{NumElements: len(weights), Weights: weights, Sets: sets}, target
}

// boundAndBranch fuses the two per-node scans over the residual gains:
// it returns the additive lower bound on the number of additional sets
// needed to cover `remaining` weight (pretending sets never overlap —
// optimistic, hence valid) and the branching set (largest residual
// gain; -1 when none is usable). Selection stops at maxUseful — the
// caller's prune test needs nothing sharper — so the scan keeps only
// the maxUseful largest gains in one descending insertion buffer
// (inserts trigger only on gains beating the buffer's minimum, so the
// common cost is the plain scan, not maxUseful extraction passes).
func (s *exactSearch) boundAndBranch(remaining float64, maxUseful int) (int, int) {
	k := maxUseful
	if k < 1 {
		k = 1
	}
	buf := s.scratch[:0]
	branch := -1
	g1, sum := 0.0, 0.0
	for si, g := range s.gains {
		if g <= 0 {
			continue
		}
		sum += g
		if g > g1 {
			g1 = g
			branch = si
		}
		if n := len(buf); n < k {
			buf = append(buf, g)
			j := n
			for j > 0 && buf[j-1] < g {
				buf[j] = buf[j-1]
				j--
			}
			buf[j] = g
		} else if g > buf[k-1] {
			j := k - 1
			for j > 0 && buf[j-1] < g {
				buf[j] = buf[j-1]
				j--
			}
			buf[j] = g
		}
	}
	s.scratch = buf
	switch {
	case remaining <= s.tol:
		return 0, branch
	case remaining <= g1+s.tol:
		// Within the acceptance tolerance one set suffices: a last set
		// whose gain falls short of the remaining target by float drift
		// alone still completes the cover.
		return 1, branch
	case sum < remaining-s.tol:
		// Tolerance matches the incumbent acceptance test: a node whose
		// total residual gain is within float drift of the target is
		// still completable, not infeasible.
		return math.MaxInt32, branch
	case maxUseful <= 2:
		// At least two sets are needed (remaining > g1+tol rules out
		// one), and the caller prunes at maxUseful anyway.
		return 2, branch
	}
	if cheap := int(math.Ceil((remaining-s.tol)/g1 - 1e-12)); cheap >= maxUseful {
		// O(1) ceiling bound: every gain is at most g1, so at least
		// (remaining−tol)/g1 more sets are needed — already enough to
		// prune.
		return maxUseful, branch
	}
	need := 0
	for _, g := range buf {
		remaining -= g
		need++
		if remaining <= s.tol {
			return need, branch
		}
	}
	// The maxUseful largest gains (or every positive gain) do not reach
	// the target: at least len(buf) more sets are needed.
	return len(buf), branch
}

func (s *exactSearch) search(covered bitset, coveredW float64, chosen []int) {
	if s.capped || s.goalMet || s.aborted {
		return
	}
	s.st.Nodes++
	if s.st.Nodes > s.maxN {
		s.capped = true
		return
	}
	// Poll the context every 1024 nodes; a fired context stops the
	// search exactly like an exhausted node budget (incumbent kept).
	// Subtree tasks also poll the shared incumbent here: when this
	// task's static root bound proves it cannot beat a published cover,
	// the whole subtree is dropped (a proof, not a cap — the merge is
	// unchanged because everything in here loses it anyway).
	if s.st.Nodes&1023 == 0 {
		if s.ctx.Err() != nil {
			s.capped = true
			return
		}
		if s.pubG != nil && int64(s.taskLB) > s.pubG.load() {
			s.aborted = true
			return
		}
	}
	if coveredW >= s.target-s.tol {
		if len(chosen) < s.bestLen {
			s.bestLen = len(chosen)
			s.best = append([]int(nil), chosen...)
			if s.pubG != nil {
				// Publish immediately so sibling subtrees can abort.
				s.pubG.publish(int64(s.bestLen))
			}
			if s.goal > 0 && s.bestLen <= s.goal {
				// A cover of the proven optimum size: stop.
				s.goalMet = true
				return
			}
		}
		return
	}
	if len(chosen)+1 >= s.bestLen {
		// The target is not reached, so any completion adds at least one
		// more set and cannot improve on the incumbent.
		return
	}

	// One fused pass yields the additive bound and the branching set
	// (largest residual gain).
	lb, branch := s.boundAndBranch(s.target-coveredW, s.bestLen-len(chosen))
	if len(chosen)+lb >= s.bestLen {
		return
	}
	// The disjoint-family bound is the costlier one: only consult it on
	// nodes the additive bound failed to prune, and only until it
	// reaches pruning strength.
	if s.elemOrder != nil {
		if db := s.disjointBound(s.bestLen - len(chosen)); db > lb {
			lb = db
			if len(chosen)+lb >= s.bestLen {
				return
			}
		}
	}
	if branch < 0 {
		return // nothing left to add
	}
	// Frontier cut: instead of descending, snapshot this node as an
	// independent subtree task. lb is the sharpest bound the node was
	// scanned with — the task's static abort certificate.
	if s.frontierDepth >= 0 && s.depth >= s.frontierDepth {
		s.snapshotTask(covered, coveredW, chosen, len(chosen)+lb)
		return
	}
	// Include branch first: mimics the greedy and finds incumbents fast.
	s.include(covered, coveredW, chosen, branch)
	// Exclude branch: zeroing the set's residual gain removes it from
	// the bound, the branch selection and the feasibility sum in one
	// store (root-excluded sets already sit at gain 0 the same way).
	// Dominance rides along: once the branched set is out, any
	// candidate whose residual coverage it contains can be swapped for
	// it, so those are excluded too. Residual-identical sets are the
	// symmetry case: only the branch-first permutation survives. The
	// gain snapshot pushed first restores every zeroed gain on return.
	mark := s.saveGains()
	s.gains[branch] = 0
	s.excludeDominatedBy(branch, covered)
	s.depth++
	s.search(covered, coveredW, chosen)
	s.depth--
	s.restoreGains(mark)
}

// saveGains pushes a snapshot of the residual gains and returns the
// mark restoreGains pops back to.
func (s *exactSearch) saveGains() int {
	mark := len(s.saved)
	s.saved = append(s.saved, s.gains...)
	return mark
}

// restoreGains copies the snapshot pushed at mark back into gains and
// pops it: the exact bits return, so backtracking never accumulates
// float drift.
func (s *exactSearch) restoreGains(mark int) {
	copy(s.gains, s.saved[mark:])
	s.saved = s.saved[:mark]
}

// excludeDominatedBy zeroes the gain of every live candidate set whose
// residual coverage is contained in branch's: in the branch-excluded
// subtree any cover using such a set can swap it for branch without
// losing covered weight or cardinality, and that cover lives in the
// include subtree, which was searched first. The caller's gain
// snapshot restores the zeroed gains.
func (s *exactSearch) excludeDominatedBy(branch int, covered bitset) {
	bm := s.setMasks[branch]
	for sj := range s.gains {
		if s.gains[sj] <= 0 || sj == branch {
			continue
		}
		jm := s.setMasks[sj]
		if jm == nil {
			continue
		}
		dominated := true
		for wi, wv := range jm {
			if wv&^covered[wi]&^bm[wi] != 0 {
				dominated = false
				break
			}
		}
		if dominated {
			s.gains[sj] = 0
			s.st.DominancePrunes++
		}
	}
}

// include descends into the branch that takes set si. covered and the
// residual gains are updated in place and restored exactly afterwards:
// the newly covered elements are unset from the flip stack, and the
// gains are copied back from the snapshot pushed on entry.
func (s *exactSearch) include(covered bitset, coveredW float64, chosen []int, si int) {
	mark, markF := s.saveGains(), len(s.flip)
	w := coveredW
	for _, e := range s.in.Sets[si] {
		if covered.get(e) {
			continue
		}
		covered.set(e)
		if s.permPos != nil {
			if p := s.permPos[e]; p >= 0 {
				s.permCovered.set(int(p))
			}
		}
		s.flip = append(s.flip, int32(e))
		we := s.in.weight(e)
		w += we
		for _, t := range s.elemSets[e] {
			s.gains[t] -= we
		}
	}
	s.depth++
	s.search(covered, w, append(chosen, si))
	s.depth--
	s.restoreGains(mark)
	for i := len(s.flip) - 1; i >= markF; i-- {
		e := int(s.flip[i])
		covered.unset(e)
		if s.permPos != nil {
			if p := s.permPos[e]; p >= 0 {
				s.permCovered.unset(int(p))
			}
		}
	}
	s.flip = s.flip[:markF]
}
