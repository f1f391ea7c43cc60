package passive

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mip"
)

// Formulation selects which of the paper's two MIP formulations to use.
type Formulation int

const (
	// LP2 is the compact formulation (Linear program 2 of §4.3):
	// binary x_e, δ_t ∈ [0,1] with Σ_{e∈p_t} x_e ≥ δ_t and
	// Σ_t δ_t·v_t ≥ k·V. Default.
	LP2 Formulation = iota
	// LP1 is the arc-path flow formulation (Linear program 1): flow
	// variables f_t^e on the MECF graph with the binary arc-opening
	// variables x_e. Kept for cross-validation; larger than LP2.
	LP1
)

// ILPOptions configures SolveILP.
type ILPOptions struct {
	Formulation Formulation
	// Installed lists links that already carry a device; their x_e is
	// fixed to 1 and they do not count towards Budget. This is the
	// paper's incremental-placement variant (§4.3).
	Installed []graph.EdgeID
	// Budget, when positive, caps the number of devices (installed ones
	// included): the paper's "limited number of devices" variant. The
	// problem may then be infeasible.
	Budget int
	// MaxNodes caps branch-and-bound nodes (0 = solver default).
	MaxNodes int
	// Gap is the absolute optimality gap for branch-and-bound pruning
	// (0 = solver default, effectively prove to optimality).
	Gap float64
	// RelGap is the relative optimality gap: subtrees within
	// Gap + RelGap·|incumbent| of the incumbent are pruned, so pruning
	// scales with the objective on large instances (0 = off).
	RelGap float64
}

// SolveILP solves PPM(k) exactly with the paper's MIP formulation (the
// "ILP" curves of Figures 7 and 8, solved by CPLEX in the paper and by
// internal/mip here). It returns an error when the model is infeasible
// (possible only with a Budget); cancelling ctx or exhausting the node
// budget returns the best incumbent found so far with Exact = false
// (the greedy warm start guarantees one always exists).
func SolveILP(ctx context.Context, in *core.Instance, k float64, opts ILPOptions) (Placement, error) {
	checkK(k)
	if err := in.Validate(); err != nil {
		return Placement{}, err
	}
	switch opts.Formulation {
	case LP2:
		return solveLP2(ctx, in, k, opts)
	case LP1:
		return solveLP1(ctx, in, k, opts)
	}
	return Placement{}, fmt.Errorf("passive: unknown formulation %d", opts.Formulation)
}

// solveLP2 builds Linear program 2 of §4.3.
func solveLP2(ctx context.Context, in *core.Instance, k float64, opts ILPOptions) (Placement, error) {
	p := mip.NewProblem(lp.Minimize)
	m := in.G.NumEdges()

	// x_e = 1 iff a measurement point is installed on e.
	xs := make([]lp.Var, m)
	for e := 0; e < m; e++ {
		xs[e] = p.AddBinaryVariable(fmt.Sprintf("x%d", e), 1)
	}
	// δ_t = monitored share of traffic t.
	ds := make([]lp.Var, len(in.Traffics))
	for ti := range in.Traffics {
		ds[ti] = p.AddVariable(fmt.Sprintf("d%d", ti), 0, 1, 0)
	}
	// Σ_{e∈p_t} x_e ≥ δ_t for every traffic.
	for ti, t := range in.Traffics {
		terms := make([]lp.Term, 0, t.Path.Len()+1)
		for _, e := range t.Path.Edges {
			terms = append(terms, lp.Term{Var: xs[e], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: ds[ti], Coef: -1})
		p.AddConstraint(lp.GE, 0, terms...)
	}
	// Σ_t δ_t·v_t ≥ k·V.
	cov := make([]lp.Term, len(in.Traffics))
	for ti, t := range in.Traffics {
		cov[ti] = lp.Term{Var: ds[ti], Coef: t.Volume}
	}
	p.AddConstraint(lp.GE, k*in.TotalVolume(), cov...)

	applyCommonILP(p, xs, opts)
	p.SetOptions(mipOptions(opts, lp2Incumbent(in, k, opts, p.NumVariables(), xs, ds)))

	sol, err := p.SolveContext(ctx)
	if err != nil {
		return Placement{}, err
	}
	return ilpPlacement(in, xs, sol, "ilp-lp2")
}

// lp2Incumbent builds a warm-start solution for LP 2 from the greedy
// heuristic (plus any pre-installed devices): a feasible placement that
// lets branch-and-bound prune from the first node.
func lp2Incumbent(in *core.Instance, k float64, opts ILPOptions, nVars int, xs, ds []lp.Var) []float64 {
	greedy := GreedyGain(in, k)
	chosen := make(map[graph.EdgeID]bool, len(greedy.Edges)+len(opts.Installed))
	for _, e := range greedy.Edges {
		chosen[e] = true
	}
	for _, e := range opts.Installed {
		chosen[e] = true
	}
	x := make([]float64, nVars)
	for e, v := range xs {
		if chosen[graph.EdgeID(e)] {
			x[v] = 1
		}
	}
	for ti, t := range in.Traffics {
		for _, e := range t.Path.Edges {
			if chosen[e] {
				x[ds[ti]] = 1
				break
			}
		}
	}
	return x
}

// mipOptions combines the caller's node budget and gap with a warm
// start.
func mipOptions(opts ILPOptions, incumbent []float64) mip.Options {
	return mip.Options{MaxNodes: opts.MaxNodes, Gap: opts.Gap, RelGap: opts.RelGap, Incumbent: incumbent}
}

// solveLP1 builds Linear program 1 of §4.3: the arc-path form with flow
// variables f_t^e for every (edge, traffic) adjacency of the MECF graph.
func solveLP1(ctx context.Context, in *core.Instance, k float64, opts ILPOptions) (Placement, error) {
	p := mip.NewProblem(lp.Minimize)
	m := in.G.NumEdges()
	onEdge := in.TrafficsOnEdge()

	xs := make([]lp.Var, m)
	for e := 0; e < m; e++ {
		xs[e] = p.AddBinaryVariable(fmt.Sprintf("x%d", e), 1)
	}
	// f[e][ti] exists iff traffic ti crosses edge e.
	f := make([]map[int]lp.Var, m)
	for e := 0; e < m; e++ {
		f[e] = make(map[int]lp.Var, len(onEdge[e]))
		for _, ti := range onEdge[e] {
			f[e][ti] = p.AddVariable(fmt.Sprintf("f%d_%d", e, ti), 0, lp.Inf, 0)
		}
	}
	// Σ_{t∈π_e} f_t^e ≤ x_e · Σ_{t∈π_e} v_t (no flow without paying e).
	for e := 0; e < m; e++ {
		if len(onEdge[e]) == 0 {
			continue
		}
		capSum := 0.0
		terms := make([]lp.Term, 0, len(onEdge[e])+1)
		for _, ti := range onEdge[e] {
			capSum += in.Traffics[ti].Volume
			terms = append(terms, lp.Term{Var: f[e][ti], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: xs[e], Coef: -capSum})
		p.AddConstraint(lp.LE, 0, terms...)
	}
	// Σ_{e∈p_t} f_t^e ≤ v_t (a traffic is counted at most once).
	for ti, t := range in.Traffics {
		terms := make([]lp.Term, 0, t.Path.Len())
		for _, e := range t.Path.Edges {
			terms = append(terms, lp.Term{Var: f[e][ti], Coef: 1})
		}
		p.AddConstraint(lp.LE, t.Volume, terms...)
	}
	// Total monitored flow ≥ k·V.
	var all []lp.Term
	for e := 0; e < m; e++ {
		for _, ti := range onEdge[e] {
			all = append(all, lp.Term{Var: f[e][ti], Coef: 1})
		}
	}
	p.AddConstraint(lp.GE, k*in.TotalVolume(), all...)

	applyCommonILP(p, xs, opts)

	// Warm start: the greedy placement with each covered traffic's full
	// volume assigned to its first chosen edge.
	greedy := GreedyGain(in, k)
	chosen := make(map[graph.EdgeID]bool, len(greedy.Edges)+len(opts.Installed))
	for _, e := range greedy.Edges {
		chosen[e] = true
	}
	for _, e := range opts.Installed {
		chosen[e] = true
	}
	inc := make([]float64, p.NumVariables())
	for e, v := range xs {
		if chosen[graph.EdgeID(e)] {
			inc[v] = 1
		}
	}
	for ti, t := range in.Traffics {
		for _, e := range t.Path.Edges {
			if chosen[e] {
				inc[f[e][ti]] = t.Volume
				break
			}
		}
	}
	p.SetOptions(mipOptions(opts, inc))

	sol, err := p.SolveContext(ctx)
	if err != nil {
		return Placement{}, err
	}
	return ilpPlacement(in, xs, sol, "ilp-lp1")
}

// applyCommonILP adds the incremental and budget variants shared by
// both formulations.
func applyCommonILP(p *mip.Problem, xs []lp.Var, opts ILPOptions) {
	for _, e := range opts.Installed {
		p.FixVariable(xs[e], 1)
	}
	if opts.Budget > 0 {
		terms := make([]lp.Term, len(xs))
		for i, x := range xs {
			terms[i] = lp.Term{Var: x, Coef: 1}
		}
		p.AddConstraint(lp.LE, float64(opts.Budget), terms...)
	}
}

func ilpPlacement(in *core.Instance, xs []lp.Var, sol *mip.Solution, method string) (Placement, error) {
	exact := false
	switch sol.Status {
	case lp.Optimal:
		exact = true
	case lp.Canceled, lp.IterLimit:
		// Early stop: report the incumbent as a heuristic result when
		// one exists (the greedy warm start normally guarantees it).
		if sol.X == nil {
			return Placement{}, fmt.Errorf("passive: %s: solver stopped with status %v and no incumbent", method, sol.Status)
		}
	case lp.Infeasible:
		return Placement{}, fmt.Errorf("passive: %s: model infeasible (budget too small?)", method)
	default:
		return Placement{}, fmt.Errorf("passive: %s: solver stopped with status %v", method, sol.Status)
	}
	var edges []graph.EdgeID
	for e, x := range xs {
		if sol.Value(x) > 0.5 {
			edges = append(edges, graph.EdgeID(e))
		}
	}
	pl := finish(in, edges, exact, method)
	pl.Stats = sol.SolveStats
	return pl, nil
}

// MaxCoverage solves the dual question of §4.3's budget variant: given
// at most `budget` devices (plus the already Installed ones), place them
// to maximize the monitored volume. This answers the paper's "estimate
// the expected gain in buying one or a set of new devices".
func MaxCoverage(ctx context.Context, in *core.Instance, budget int, installed []graph.EdgeID) (Placement, error) {
	if budget < 0 {
		return Placement{}, fmt.Errorf("passive: negative budget %d", budget)
	}
	if err := in.Validate(); err != nil {
		return Placement{}, err
	}
	p := mip.NewProblem(lp.Maximize)
	m := in.G.NumEdges()
	xs := make([]lp.Var, m)
	for e := 0; e < m; e++ {
		xs[e] = p.AddBinaryVariable(fmt.Sprintf("x%d", e), 0)
	}
	ds := make([]lp.Var, len(in.Traffics))
	for ti, t := range in.Traffics {
		ds[ti] = p.AddVariable(fmt.Sprintf("d%d", ti), 0, 1, t.Volume)
	}
	for ti, t := range in.Traffics {
		terms := make([]lp.Term, 0, t.Path.Len()+1)
		for _, e := range t.Path.Edges {
			terms = append(terms, lp.Term{Var: xs[e], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: ds[ti], Coef: -1})
		p.AddConstraint(lp.GE, 0, terms...)
	}
	for _, e := range installed {
		p.FixVariable(xs[e], 1)
	}
	budgetTerms := make([]lp.Term, m)
	for e, x := range xs {
		budgetTerms[e] = lp.Term{Var: x, Coef: 1}
	}
	p.AddConstraint(lp.LE, float64(budget+len(installed)), budgetTerms...)

	// Warm start: greedily take the best-gain edges within the budget.
	inc := make([]float64, p.NumVariables())
	chosen := make(map[graph.EdgeID]bool, budget+len(installed))
	for _, e := range installed {
		chosen[e] = true
	}
	onEdge := in.TrafficsOnEdge()
	monitored := make([]bool, len(in.Traffics))
	markCovered := func() {
		for e := range chosen {
			for _, ti := range onEdge[e] {
				monitored[ti] = true
			}
		}
	}
	markCovered()
	for picks := 0; picks < budget; picks++ {
		best, bestGain := -1, 0.0
		for e := 0; e < m; e++ {
			if chosen[graph.EdgeID(e)] {
				continue
			}
			gain := 0.0
			for _, ti := range onEdge[e] {
				if !monitored[ti] {
					gain += in.Traffics[ti].Volume
				}
			}
			if gain > bestGain {
				best, bestGain = e, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[graph.EdgeID(best)] = true
		for _, ti := range onEdge[best] {
			monitored[ti] = true
		}
	}
	for e, v := range xs {
		if chosen[graph.EdgeID(e)] {
			inc[v] = 1
		}
	}
	for ti := range in.Traffics {
		if monitored[ti] {
			inc[ds[ti]] = 1
		}
	}
	p.SetOptions(mip.Options{Incumbent: inc})

	sol, err := p.SolveContext(ctx)
	if err != nil {
		return Placement{}, err
	}
	return ilpPlacement(in, xs, sol, "max-coverage")
}
