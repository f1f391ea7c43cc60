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
	//   - VarsFixed, the sets permanently excluded by the root LP's
	//     reduced-cost fixing.
	//   - SubtreeTasks, the frontier subtree tasks dispatched over the
	//     worker pool (0 when the search closed in the serial burn-in).
	//     The frontier is worker-count independent.
	//   - Steals, the subtree tasks executed by a worker other than
	//     their round-robin home worker (0 for serial searches).
	//   - DominancePrunes, the sets excluded by in-search residual
	//     dominance (exclude branches drop every candidate whose
	//     residual coverage the branched set contains). Schedule-
	//     dependent like Nodes when Workers > 1.
	//   - Pivots, the simplex iterations of the root LP solves (0 when
	//     the LP was skipped).
	//   - WarmStarts, 1 when the root LP completed on a seeded basis
	//     (ExactOptions.Warm), else 0. Always 0 for cold solves.
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

// GreedyBoundRatio returns the Slavík approximation guarantee
// ln n − ln ln n + Θ(1) for instance size n (clamped below at 1), used
// for reporting how far greedy can be from optimal.
func GreedyBoundRatio(n int) float64 {
	if n < 3 {
		return 1
	}
	r := math.Log(float64(n)) - math.Log(math.Log(float64(n))) + 0.78
	if r < 1 {
		return 1
	}
	return r
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
	// NoPresolve disables the kernelization presolve (signature
	// merging, dominated sets/elements, forced unique coverers).
	// Ablation and oracle-test knob; production leaves it false.
	NoPresolve bool
	// NoDualBound disables the per-node Lagrangian dual-ascent bound.
	NoDualBound bool
	// NoDominance disables the in-search exclude-branch dominance
	// reductions (including the symmetry break on residual-identical
	// sets).
	NoDominance bool
	// Warm carries artifacts from a previous solve of a related
	// instance (nil = cold solve). The warm solve runs the cold control
	// flow; the artifacts only seed the phase-2 root LP and are
	// revalidated against THIS instance there, so a stale Warm can only
	// cost time, never correctness — and never the answer: the returned
	// cover is byte-identical to a cold solve's whenever both prove
	// optimality (see the reconstruction phase in Exact).
	Warm *Warm
	// Capture, when non-nil, receives artifacts of this solve for a
	// future warm re-solve. Capturing never changes the solve itself.
	Capture *Capture
}

// Warm is the artifact bundle a warm solve may reuse.
type Warm struct {
	// Basis seeds the root LP via lp.SolveContextFrom. A basis whose
	// shape no longer matches (the mutation changed the LP dimensions)
	// falls back to a cold LP solve inside the lp package.
	Basis *lp.Basis
}

// Capture receives artifacts of a solve for reuse by a later warm one.
type Capture struct {
	// Basis is the final root LP basis (nil when the LP never ran).
	Basis *lp.Basis
}

// Exact solves Minimum Partial Cover exactly with branch and bound:
// depth-first search that always branches on the set with the largest
// residual coverage (include first, giving a greedy dive for early
// incumbents) and prunes with an optimistic fractional bound, a frozen
// Lagrangian dual-ascent bound, and (full covers) a disjoint-family
// bound.
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
// The search itself runs in four deterministic phases (DESIGN.md §4a):
// a serial burn-in with a fixed node budget closes easy instances
// outright; a surviving search pays one root LP for reduced-cost set
// bans; the tree is then expanded serially to a fixed-depth frontier
// of independent subtree tasks; and the tasks run on opts.Workers
// workers with a shared atomic incumbent used only for whole-subtree
// aborts. The merged result is chosen by (cover size, task index), so
// the returned cover is byte-identical for any worker count — one
// worker is the oracle the parallel runs are compared against.
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
	searchIn, searchTarget := in, target
	if !opts.NoPresolve {
		// Merge elements with identical covering sets (their coverage
		// always moves together, so one weighted representative
		// suffices at any k).
		searchIn, searchTarget = mergeSignatures(in, target)
	}

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
	var forced []int
	if !opts.NoPresolve {
		forced = s.presolve(excluded, covered, fullCover)
	}
	if fullCover {
		s.prepareDisjointBound(excluded, covered)
	}
	coveredW := 0.0
	for e := 0; e < s.in.NumElements; e++ {
		if covered.get(e) {
			coveredW += s.in.weight(e)
		}
	}
	s.rootExcluded, s.forced = excluded, forced
	s.capture = opts.Capture
	s.prepareGains(covered, excluded, !opts.NoDominance)
	if !opts.NoDualBound {
		s.prepareDualBound(excluded, covered, coveredW)
	}
	// The reconstruction phase needs dual state that depends on the
	// instance only; strengthenDualBound tightens (φ, λ) against the
	// evolving incumbent, so the pre-search values are frozen here.
	basePhi, baseLambda, baseUncov0 := s.dualPhi, s.dualLambda, s.dualUncov0

	if opts.Warm != nil {
		s.seedBasis = opts.Warm.Basis
	}
	s.runValuePhases(opts, workers, excluded, covered, coveredW, forced)
	if s.capped || s.ctx.Err() != nil {
		// Capped or canceled: the best incumbent with Exact=false, the
		// historical behaviour, byte-identical to the pre-session solver
		// for cold solves.
		return s.resultOn(in)
	}

	// Value phase proved optimality: opt is a property of the instance
	// alone, whichever basis the root LP started from.
	opt := s.bestLen
	if opt >= len(greedy.Chosen) {
		// The greedy cover is itself optimal. The search only ever
		// adopts strictly shorter covers, so s.best IS greedy.Chosen:
		// already canonical, no reconstruction needed.
		return s.resultOn(in)
	}

	// Reconstruction phase: re-derive the RETURNED cover from
	// (instance, opt) alone, so the answer is identical whether the
	// proof above ran cold or warm. The fresh serial search uses only
	// instance-deterministic pruning state (presolve, residual gains,
	// disjoint families, the pre-search dual pair — never LP reduced-
	// cost bans, whose values depend on the basis the simplex happened
	// to end on) with the proven optimum as a perfect bound: the first
	// accepted cover has exactly opt sets and stops the search.
	r := &exactSearch{
		ctx:     ctx,
		in:      s.in,
		target:  s.target,
		tol:     s.tol,
		best:    append([]int(nil), greedy.Chosen...),
		bestLen: opt + 1,
		maxN:    opts.MaxNodes,

		rootLB:       opt,
		haveRootLB:   true,
		rootExcluded: s.rootExcluded,
		forced:       s.forced,

		dualPhi:    basePhi,
		dualLambda: baseLambda,
		dualUncov0: baseUncov0,

		setMasks:     s.setMasks,
		elemCoverers: s.elemCoverers,
		elemOrder:    s.elemOrder,
		permPos:      s.permPos,
		permCovered:  s.permCovered,
		disjointUsed: s.disjointUsed,
		gains:        s.gains,
		elemSets:     s.elemSets,

		frontierDepth: -1,
	}
	r.search(covered, coveredW, baseUncov0, forced)
	if r.doneOptimal {
		res := r.resultOn(in)
		res.Add(s.effort())
		return res
	}
	if ctx.Err() != nil {
		// Canceled mid-reconstruction: degrade to the value phase's
		// incumbent — an optimal cover, conservatively reported
		// Exact=false like every canceled search.
		s.capped = true
		res := s.resultOn(in)
		res.Add(r.effort())
		return res
	}
	// The reconstruction exhausted its own node budget before accepting
	// a cover (pathological: its pruning bound is perfect). Fall back to
	// the greedy cover — deterministic on both the cold and warm path —
	// and report Exact=false: the optimum value was proven but the
	// canonical witness was not reproduced within budget.
	g := greedy
	g.Exact = false
	g.SolveStats = s.effort()
	g.Add(r.effort())
	return g
}

// runValuePhases runs the four search phases (DESIGN.md §4a) that prove
// the optimum value (or exhaust the budget): serial burn-in, root LP
// strengthening, frontier expansion, parallel subtrees. On return
// either s.capped (budget/cancel) or optimality is proven with
// s.bestLen the optimum.
func (s *exactSearch) runValuePhases(opts ExactOptions, workers int, excluded []bool, covered bitset, coveredW float64, forced []int) {
	// Phase 1 — serial burn-in: the strengthened serial search with a
	// fixed node budget. Most instances close here; the budget (not a
	// wall clock) keeps the phase boundary deterministic.
	burnIn := coverLPTrigger
	if burnIn > opts.MaxNodes {
		burnIn = opts.MaxNodes
	}
	s.maxN = burnIn
	s.search(covered, coveredW, s.dualUncov0, forced)
	if !s.capped || s.ctx.Err() != nil || burnIn >= opts.MaxNodes {
		// Closed, canceled, or the real node budget is exhausted.
		return
	}

	// Phase 2 — root strengthening at a deterministic decision point:
	// a search that survived the burn-in pays one LP solve for a global
	// lower bound and reduced-cost set bans. The bans are frozen
	// against the burn-in incumbent before any parallelism starts, so
	// they cannot leak schedule timing into branch selection. A warm
	// solve seeds this LP with the saved basis.
	s.capped = false
	if z, dj, sol, ok := rootLP(s.ctx, s.in, s.target, excluded, forced, s.seedBasis); ok {
		s.lpZ, s.lpDj = z, dj
		s.st.Pivots += sol.Iterations
		if sol.Warm {
			s.st.WarmStarts++
		}
		if s.capture != nil {
			s.capture.Basis = sol.Basis()
		}
		if rlb := int(math.Ceil(z - 1e-6)); rlb > s.rootLB {
			s.rootLB = rlb
		}
		s.haveRootLB = s.rootLB >= 1
		s.banned = make([]bool, len(s.in.Sets))
		s.refreshBans()
		if s.bestLen <= s.rootLB {
			return // the incumbent meets the LP bound
		}
	}
	if !opts.NoDualBound && s.lpDj == nil {
		// Same decision point, for the instances the LP row cap turned
		// away: a subgradient climb replaces the cheap alternation duals
		// with a near-LP-strength frozen (φ, λ) pair. When the LP DID
		// solve, its optimum dominates every Lagrangian value, so the
		// climb could only waste the time it costs.
		s.strengthenDualBound(excluded, covered, coveredW)
		if s.bestLen <= s.rootLB {
			return
		}
	}

	// Phase 3 — frontier expansion: re-walk the tree serially, cutting
	// it at a fixed depth into independent subtree tasks. The frontier
	// depends only on deterministic state (never on worker count), and
	// a second, deeper pass splits further when the first one yields
	// too few tasks to balance.
	s.maxN = opts.MaxNodes
	for _, d := range []int{frontierDepth, frontierDepth + 4} {
		s.tasks, s.frontierDepth, s.depth = nil, d, 0
		s.search(covered, coveredW, s.dualUncov0, forced)
		if s.capped || s.doneOptimal || s.ctx.Err() != nil || len(s.tasks) >= frontierMinTasks {
			break
		}
	}
	s.frontierDepth = -1
	if len(s.tasks) == 0 || s.capped || s.doneOptimal || s.ctx.Err() != nil {
		// The depth-limited walk closed (or capped) the search itself.
		return
	}

	// Phase 4 — parallel subtree search with deterministic merge.
	s.runSubtrees(workers, opts.MaxNodes)
}

// lpRowsOK reports whether the instance is small enough for a cold root
// LP (rootLPRowCap); a seeded basis bypasses the cap, since the warm
// solve is expected to finish in a handful of dual pivots.
func lpRowsOK(in Instance) bool {
	rows := 0
	for e := 0; e < in.NumElements; e++ {
		if !lp.StructZero(in.weight(e)) {
			rows++
		}
	}
	return rows <= rootLPRowCap
}

// effort returns the search's counters with the sets excluded by
// reduced-cost fixing counted as VarsFixed.
func (s *exactSearch) effort() core.SolveStats {
	st := s.st
	for _, b := range s.banned {
		if b {
			st.VarsFixed++
		}
	}
	return st
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
	live := func(e int) bool { return !covered.get(e) && !lp.StructZero(in.weight(e)) }
	drop := make([]bool, in.NumElements)
	for u := 0; u < in.NumElements; u++ {
		if drop[u] || !live(u) {
			continue
		}
		for v := 0; v < in.NumElements; v++ {
			if u == v || drop[v] || !live(v) {
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
	// in every search and task clone; SubtreeTasks, Steals, Pivots and
	// WarmStarts only in the root search. VarsFixed is derived from
	// banned by effort.
	st core.SolveStats

	// Root LP strengthening state (the set-cover face of the MIP
	// pipeline, see DESIGN.md §4). The LP is paid at most once, at the
	// deterministic burn-in → parallel phase boundary. lpZ is
	// the relaxation objective, lpDj the per-set reduced costs (nil
	// when the LP was skipped or failed), rootLB the best global lower
	// bound (ceil of the LP objective or the root dual-ascent value,
	// haveRootLB when meaningful), banned the sets excluded by reduced
	// cost against the current incumbent, and doneOptimal flips when
	// the incumbent meets rootLB (the rest of the tree cannot improve
	// and the search stops, still exact).
	lpZ          float64
	lpDj         []float64
	rootLB       int
	haveRootLB   bool
	banned       []bool
	doneOptimal  bool
	rootExcluded []bool
	forced       []int

	// Frozen root dual-ascent bound state (dual.go): dualPhi[e] is the
	// per-element penalty max(0, λ·w_e − y_e) of a feasible dual (y, λ)
	// of the partial-cover LP, dualLambda the multiplier, dualUncov0
	// the penalty sum over the root's uncovered elements. The per-node
	// bound is ⌈λ·(target − coveredW) − Σ_{e uncovered} dualPhi[e]⌉,
	// maintained in O(1) per covered element. nil dualPhi = bound off.
	dualPhi    []float64
	dualLambda float64
	dualUncov0 float64

	// In-search dominance state: setMasks[si] is set si's positive-
	// weight element bitmap (nil = dominance off or set root-excluded).
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

	// The caller's capture sink for the final root LP basis (root
	// search only). seedBasis warm-starts the phase-2 root LP when a
	// previous solve shipped one.
	capture   *Capture
	seedBasis *lp.Basis

	// Disjoint-elements bound state (full covers only): per-element
	// covering-set bitmaps in a processing order of increasing coverer
	// count. Elements pairwise sharing no covering set each require a
	// distinct set, so the size of such a family lower-bounds the
	// remaining cover.
	elemCoverers []bitset
	elemOrder    []int
	disjointUsed bitset  // scratch family-coverer union
	permPos      []int32 // element → elemOrder position (-1 = untracked)
	permCovered  bitset  // covered, permuted into elemOrder positions

	// Incremental residual-gain state: gains[si] is the uncovered
	// weight of set si, updated in place as include branches flip
	// elements (and restored exactly on backtrack via the undo stacks)
	// instead of being recomputed from every set at every node.
	gains    []float64
	elemSets [][]int32 // per element: root-non-excluded sets covering it
	undoT    []int32   // undo stack: touched set ids…
	undoG    []float64 // …and their prior gains
	flip     []int32   // undo stack: elements newly covered
	scratch  []float64 // lower-bound selection buffer
}

// prepareGains builds the per-element coverer lists and the initial
// residual gains (everything after the root reductions and forced
// inclusions). With masks it also builds the per-set positive-weight
// element bitmaps the in-search dominance rule tests containment on.
func (s *exactSearch) prepareGains(covered bitset, excluded []bool, masks bool) {
	n := s.in.NumElements
	s.elemSets = make([][]int32, n)
	s.gains = make([]float64, len(s.in.Sets))
	if masks {
		s.setMasks = make([]bitset, len(s.in.Sets))
	}
	for si, set := range s.in.Sets {
		if excluded[si] {
			continue
		}
		var m bitset
		if masks {
			m = newBitset(n)
			s.setMasks[si] = m
		}
		g := 0.0
		for _, e := range set {
			s.elemSets[e] = append(s.elemSets[e], int32(si))
			if !covered.get(e) {
				g += s.in.weight(e)
			}
			if m != nil && s.in.weight(e) > 0 {
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
	s.disjointUsed = newBitset(len(s.in.Sets))
	// Mirror of `covered` permuted into elemOrder positions, maintained
	// by include()'s flip/undo, so the bound scan skips covered
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

// rootLPRowCap skips the root LP on instances whose relaxation would
// have more element rows than this: on the paper's large partial-cover
// instances the covering LP is both degenerate (tens of thousands of
// pivots) and weak (a structural integrality gap), so it cannot pay
// for itself. coverLPTrigger keeps the LP lazy — only searches that
// survive that many serial burn-in nodes buy the bound.
const rootLPRowCap = 300

// coverLPTrigger is the serial burn-in node budget: searches that close
// within it never pay for the root LP, the frontier expansion, or the
// parallel machinery. A var only so the test suite can force the
// strengthened phases on tiny searches (or disable them); production
// code never writes it.
var coverLPTrigger = 2048

// isBanned reports whether reduced-cost fixing excluded the set.
func (s *exactSearch) isBanned(si int) bool {
	return s.banned != nil && s.banned[si]
}

// refreshBans re-applies the reduced-cost exclusion test against the
// current incumbent: a cover containing set si costs at least
// lpZ + dj_si, so when that exceeds bestLen−1 no improving cover uses
// si. Bans only grow as the incumbent improves.
func (s *exactSearch) refreshBans() {
	cut := float64(s.bestLen-1) + 1e-6
	for si, dj := range s.lpDj {
		if !s.banned[si] && s.lpZ+dj > cut {
			s.banned[si] = true
		}
	}
}

// rootLP solves the LP relaxation of the (reduced) partial-cover
// instance: min Σ x_s subject to δ_e ≤ Σ_{s∋e} x_s, Σ w_e·δ_e ≥ target,
// x over the non-excluded sets (forced sets pinned to 1). It returns
// the objective, the per-set reduced costs for reduced-cost fixing, and
// the lp solution (effort counters, final basis); ok is false when the
// LP was canceled or failed (the search then just runs unstrenghtened).
// A non-nil seed warm-starts the simplex from a previous solve's basis;
// a shape mismatch falls back to a cold solve inside lp.
func rootLP(ctx context.Context, in Instance, target float64, excluded []bool, forced []int, seed *lp.Basis) (z float64, dj []float64, lpSol *lp.Solution, ok bool) {
	if seed == nil && !lpRowsOK(in) {
		return 0, nil, nil, false
	}
	p := lp.NewProblem(lp.Minimize)
	p.SetExtractDuals(true)
	xs := make([]lp.Var, len(in.Sets))
	isForced := make([]bool, len(in.Sets))
	for _, si := range forced {
		isForced[si] = true
	}
	for si := range in.Sets {
		lo, hi := 0.0, 1.0
		switch {
		case excluded[si]:
			hi = 0
		case isForced[si]:
			lo = 1
		}
		xs[si] = p.AddVariable("x", lo, hi, 1)
	}
	coverers := make([][]int32, in.NumElements)
	for si, set := range in.Sets {
		if excluded[si] {
			continue
		}
		for _, e := range set {
			coverers[e] = append(coverers[e], int32(si))
		}
	}
	var covTerms []lp.Term
	for e := 0; e < in.NumElements; e++ {
		w := in.weight(e)
		if lp.StructZero(w) {
			continue
		}
		d := p.AddVariable("d", 0, 1, 0)
		covTerms = append(covTerms, lp.Term{Var: d, Coef: w})
		terms := make([]lp.Term, 0, len(coverers[e])+1)
		terms = append(terms, lp.Term{Var: d, Coef: -1})
		prev := int32(-1)
		for _, si := range coverers[e] {
			if si != prev { // a set may list an element twice
				terms = append(terms, lp.Term{Var: xs[si], Coef: 1})
			}
			prev = si
		}
		p.AddConstraint(lp.GE, 0, terms...)
	}
	p.AddConstraint(lp.GE, target, covTerms...)
	sol, err := p.SolveContextFrom(ctx, seed)
	if err != nil || sol.Status != lp.Optimal || sol.ReducedCosts == nil {
		return 0, nil, nil, false
	}
	dj = make([]float64, len(in.Sets))
	for si := range in.Sets {
		dj[si] = sol.ReducedCosts[xs[si]]
	}
	return sol.Objective, dj, sol, true
}

// mergeSignatures collapses elements covered by exactly the same sets
// into one element of summed weight. Sound for any coverage target:
// merged elements are covered or uncovered together.
func mergeSignatures(in Instance, target float64) (Instance, float64) {
	coverers := make([]bitset, in.NumElements)
	for e := range coverers {
		coverers[e] = newBitset(len(in.Sets))
	}
	for si, s := range in.Sets {
		for _, e := range s {
			coverers[e].set(si)
		}
	}
	rep := make(map[string]int, in.NumElements) // signature → new element id
	newID := make([]int, in.NumElements)
	var weights []float64
	for e := 0; e < in.NumElements; e++ {
		key := fmt.Sprint(coverers[e])
		id, ok := rep[key]
		if !ok {
			id = len(weights)
			rep[key] = id
			weights = append(weights, 0)
		}
		newID[e] = id
		weights[id] += in.weight(e)
	}
	if len(weights) == in.NumElements {
		return in, target // nothing merged
	}
	sets := make([][]int, len(in.Sets))
	for si, s := range in.Sets {
		seen := make(map[int]bool, len(s))
		for _, e := range s {
			id := newID[e]
			if !seen[id] {
				seen[id] = true
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
	banned := s.banned
	branch := -1
	g1, sum := 0.0, 0.0
	for si, g := range s.gains {
		if g <= 0 || (banned != nil && banned[si]) {
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
	case remaining <= g1:
		return 1, branch
	case sum < remaining-s.tol:
		// Tolerance matches the incumbent acceptance test: a node whose
		// total residual gain is within float drift of the target is
		// still completable, not infeasible.
		return math.MaxInt32, branch
	case maxUseful <= 2:
		// Two sets never suffice here (remaining > g1 rules out one,
		// and the caller prunes at maxUseful anyway).
		return 2, branch
	}
	if cheap := int(math.Ceil(remaining/g1 - 1e-12)); cheap >= maxUseful {
		// O(1) ceiling bound: every gain is at most g1, so at least
		// remaining/g1 more sets are needed — already enough to prune.
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

func (s *exactSearch) search(covered bitset, coveredW, dualUncov float64, chosen []int) {
	if s.capped || s.doneOptimal || s.aborted {
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
			if s.haveRootLB && s.bestLen <= s.rootLB {
				// An incumbent at the root bound is proven optimal:
				// stop the whole (sub)search.
				s.doneOptimal = true
				return
			}
			if s.lpDj != nil {
				// Tighten the reduced-cost exclusions against the
				// improved cutoff (task-local: bans derive only from
				// this search's own deterministic incumbent).
				s.refreshBans()
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
	// The Lagrangian dual-ascent bound is O(1) per node: the frozen
	// root duals priced against the remaining target.
	if s.dualPhi != nil {
		if dlb := s.dualLB(coveredW, dualUncov); dlb > lb {
			lb = dlb
			if len(chosen)+lb >= s.bestLen {
				return
			}
		}
	}
	// The disjoint-family bound is the costlier one: only consult it on
	// nodes the cheap bounds failed to prune, and only until it
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
		s.snapshotTask(covered, coveredW, dualUncov, chosen, len(chosen)+lb)
		return
	}
	// Include branch first: mimics the greedy and finds incumbents fast.
	s.include(covered, coveredW, dualUncov, chosen, branch)
	// Exclude branch: zeroing the set's residual gain removes it from
	// the bound, the branch selection and the feasibility sum in one
	// store (root-excluded sets already sit at gain 0 the same way).
	// Nested includes only ever decrement the gain and their undo
	// stacks restore it exactly, so the final restore is exact too.
	// Dominance rides along: once the branched set is out, any
	// candidate whose residual coverage it contains can be swapped for
	// it, so those are excluded too (and restored from the same undo
	// stack). Residual-identical sets are the symmetry case: only the
	// branch-first permutation survives.
	markT := len(s.undoT)
	s.undoT = append(s.undoT, int32(branch))
	s.undoG = append(s.undoG, s.gains[branch])
	s.gains[branch] = 0
	if s.setMasks != nil {
		s.excludeDominatedBy(branch, covered)
	}
	s.depth++
	s.search(covered, coveredW, dualUncov, chosen)
	s.depth--
	for i := len(s.undoT) - 1; i >= markT; i-- {
		s.gains[s.undoT[i]] = s.undoG[i]
	}
	s.undoT = s.undoT[:markT]
	s.undoG = s.undoG[:markT]
}

// excludeDominatedBy zeroes the gain of every live candidate set whose
// residual coverage is contained in branch's: in the branch-excluded
// subtree any cover using such a set can swap it for branch without
// losing covered weight or cardinality, and that cover lives in the
// include subtree, which was searched first. The undo entries ride the
// caller's mark.
func (s *exactSearch) excludeDominatedBy(branch int, covered bitset) {
	bm := s.setMasks[branch]
	for sj := range s.gains {
		if s.gains[sj] <= 0 || sj == branch || s.isBanned(sj) {
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
			s.undoT = append(s.undoT, int32(sj))
			s.undoG = append(s.undoG, s.gains[sj])
			s.gains[sj] = 0
			s.st.DominancePrunes++
		}
	}
}

// include descends into the branch that takes set si. covered and the
// residual gains are updated in place and restored exactly afterwards
// (prior gain values are re-installed from the undo stack in reverse,
// so backtracking never accumulates float drift).
func (s *exactSearch) include(covered bitset, coveredW, dualUncov float64, chosen []int, si int) {
	markT, markF := len(s.undoT), len(s.flip)
	w, du := coveredW, dualUncov
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
		if s.dualPhi != nil {
			du -= s.dualPhi[e]
		}
		for _, t := range s.elemSets[e] {
			s.undoT = append(s.undoT, t)
			s.undoG = append(s.undoG, s.gains[t])
			s.gains[t] -= we
		}
	}
	s.depth++
	s.search(covered, w, du, append(chosen, si))
	s.depth--
	for i := len(s.undoT) - 1; i >= markT; i-- {
		s.gains[s.undoT[i]] = s.undoG[i]
	}
	s.undoT = s.undoT[:markT]
	s.undoG = s.undoG[:markT]
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
