// Package scenariotest is the cross-solver metamorphic harness: it
// fans scenario-family instances (internal/scenario) across the
// registered tap, beacon and sampling solvers via engine.Map and
// asserts invariants every correct solver stack must satisfy on every
// input, not just the paper's two figure-suite sizes:
//
//  1. lp-bounds-ilp — the LP relaxation of Linear program 2 bounds the
//     ILP optimum from below (⌈LP⌉ ≤ ILP devices).
//  2. greedy-never-beats-exact — heuristics (tap greedy, beacon greedy
//     and Thiran) never use fewer devices than a proven-optimal exact
//     solve of the same instance.
//  3. budget-monotone — tap/max-coverage's monitored volume is
//     non-decreasing in the device budget.
//  4. postsolve-feasible — every solver's solution is feasible on the
//     ORIGINAL instance (coverage ≥ k·V for tap solvers, every probe
//     beacon-covered for beacon solvers, per-traffic floors for
//     sampling): MIP presolve/postsolve must hand back full-length
//     untruncated solutions.
//  5. simulate-confirms-promise — replaying the sampling placement at
//     packet level in marked mode achieves the promised Σ δ_p·v_p
//     coverage within sampling tolerance.
//  6. resolve-equals-cold — session re-optimization (repro.Session)
//     over a churn chain answers byte-identically to cold solves of
//     the same mutated instances, for every registered solver: warm
//     artifacts change effort, never answers (see session.go for the
//     capped-search carve-out).
//
// The harness is ordinary (non-test) code so future CLIs or CI jobs can
// run it against out-of-tree solvers; scenariotest's own tests wire it
// to the built-in families and registry.
package scenariotest

import (
	"context"
	"fmt"
	"math"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/passive"
	"repro/internal/scenario"
	"repro/internal/simulate"
)

// Case is one scenario instance under test.
type Case struct {
	Family string
	Size   int
	Seed   int64
	// K is the coverage target handed to the solvers.
	K float64
	// In is the single-routed instance; Multi the multi-routed (§5)
	// view of the same demands.
	In    *core.Instance
	Multi *core.MultiInstance

	// memo single-flights the sub-solves several invariants share
	// (tap/ilp, sample/ppme, the probe set, beacon/ilp), so the
	// exact-solver cost is paid once per case even though invariants
	// run as independent engine tasks. Results are shared: read-only.
	memo *engine.Cache
}

// solve is repro.Solve memoized under the case's solver-name key; all
// call sites of a given solver within the invariant catalog use one
// fixed option set (WithCoverage(c.K)), so the name alone is a sound
// key. Budget sweeps bypass it (every budget is solved once anyway).
func (c Case) solve(ctx context.Context, solver string, problem repro.Problem) (*repro.Result, error) {
	v, err := c.memo.Do(solver, func() (any, error) {
		return repro.Solve(ctx, solver, problem, repro.WithCoverage(c.K))
	})
	if err != nil {
		return nil, err
	}
	return v.(*repro.Result), nil
}

func (c Case) String() string {
	return fmt.Sprintf("%s/size=%d/seed=%d/k=%g", c.Family, c.Size, c.Seed, c.K)
}

// BuildCases draws one Case per (family, size, seed) triple.
func BuildCases(families []string, sizes []int, seeds []int64, k float64) ([]Case, error) {
	var out []Case
	for _, fam := range families {
		for _, size := range sizes {
			for _, seed := range seeds {
				s, err := scenario.Generate(fam, size, seed)
				if err != nil {
					return nil, err
				}
				in, err := s.Instance()
				if err != nil {
					return nil, fmt.Errorf("%s(size=%d, seed=%d): %w", fam, size, seed, err)
				}
				mi, err := s.MultiInstance(2)
				if err != nil {
					return nil, fmt.Errorf("%s(size=%d, seed=%d): %w", fam, size, seed, err)
				}
				out = append(out, Case{
					Family: fam, Size: size, Seed: seed, K: k, In: in, Multi: mi,
					memo: engine.NewCache(),
				})
			}
		}
	}
	return out, nil
}

// Invariant is one named metamorphic property of the solver stack.
type Invariant struct {
	Name  string
	Check func(ctx context.Context, c Case) error
}

// Failure reports one invariant violation on one case.
type Failure struct {
	Case      Case
	Invariant string
	Err       error
}

func (f Failure) String() string {
	return fmt.Sprintf("%s: %s: %v", f.Case, f.Invariant, f.Err)
}

// Run fans every (case, invariant) cell across the runner's worker
// pool and returns all violations, ordered by case then invariant —
// deterministic regardless of worker count (engine.Map returns results
// in task-index order).
func Run(ctx context.Context, eng *engine.Runner, cases []Case, invs []Invariant) ([]Failure, error) {
	n := len(cases) * len(invs)
	errs, err := engine.Map(ctx, eng, n, func(ctx context.Context, i int) (error, error) {
		c := cases[i/len(invs)]
		inv := invs[i%len(invs)]
		return inv.Check(ctx, c), nil
	})
	if err != nil {
		return nil, err
	}
	var out []Failure
	for i, e := range errs {
		if e != nil {
			out = append(out, Failure{Case: cases[i/len(invs)], Invariant: invs[i%len(invs)].Name, Err: e})
		}
	}
	return out, nil
}

// Invariants returns the six-entry invariant catalog (see the package
// comment; DESIGN.md lists the same catalog).
func Invariants() []Invariant {
	return []Invariant{
		{Name: "lp-bounds-ilp", Check: checkLPBoundsILP},
		{Name: "greedy-never-beats-exact", Check: checkGreedyNeverBeatsExact},
		{Name: "budget-monotone", Check: checkBudgetMonotone},
		{Name: "postsolve-feasible", Check: checkPostsolveFeasible},
		{Name: "simulate-confirms-promise", Check: checkSimulateConfirmsPromise},
		{Name: "resolve-equals-cold", Check: checkResolveEqualsCold},
	}
}

const tol = 1e-6

// checkLPBoundsILP: LP relaxation ≤ ILP optimum, and since the device
// count is integral, ⌈LP − ε⌉ ≤ ILP too. The ILP's own reported Bound
// must also sit below its objective.
func checkLPBoundsILP(ctx context.Context, c Case) error {
	lpOpt, err := passive.LinearRelaxation(ctx, c.In, c.K)
	if err != nil {
		return err
	}
	res, err := c.solve(ctx, repro.SolverTapILP, c.In)
	if err != nil {
		return err
	}
	if !res.Optimal {
		return fmt.Errorf("ILP did not prove optimality (nodes %d)", res.Stats.Nodes)
	}
	if lpOpt > res.Objective+tol {
		return fmt.Errorf("LP relaxation %g exceeds ILP optimum %g", lpOpt, res.Objective)
	}
	if ceil := math.Ceil(lpOpt - tol); ceil > res.Objective+tol {
		return fmt.Errorf("⌈LP⌉ = %g exceeds ILP optimum %g", ceil, res.Objective)
	}
	if res.Bound > res.Objective+tol {
		return fmt.Errorf("ILP bound %g exceeds its objective %g", res.Bound, res.Objective)
	}
	return nil
}

// checkGreedyNeverBeatsExact: on the tap side greedy-gain, greedy-load
// and flow-heuristic must not beat a proven-optimal exact solve; on
// the beacon side greedy and Thiran must not beat the beacon ILP.
func checkGreedyNeverBeatsExact(ctx context.Context, c Case) error {
	exact, err := c.solve(ctx, repro.SolverTapILP, c.In)
	if err != nil {
		return err
	}
	if !exact.Optimal {
		return fmt.Errorf("tap/ilp did not prove optimality")
	}
	for _, h := range []string{repro.SolverTapGreedyGain, repro.SolverTapGreedyLoad, repro.SolverTapFlow} {
		res, err := c.solve(ctx, h, c.In)
		if err != nil {
			return fmt.Errorf("%s: %w", h, err)
		}
		if res.Objective < exact.Objective-tol {
			return fmt.Errorf("%s uses %g devices, beating exact optimum %g", h, res.Objective, exact.Objective)
		}
	}

	ps, err := c.probes()
	if err != nil {
		return err
	}
	ilp, err := c.solve(ctx, repro.SolverBeaconILP, ps)
	if err != nil {
		return err
	}
	if !ilp.Optimal {
		return fmt.Errorf("beacon/ilp did not prove optimality")
	}
	for _, h := range []string{repro.SolverBeaconGreedy, repro.SolverBeaconThiran} {
		res, err := c.solve(ctx, h, ps)
		if err != nil {
			return fmt.Errorf("%s: %w", h, err)
		}
		if res.Objective < ilp.Objective-tol {
			return fmt.Errorf("%s places %g beacons, beating exact optimum %g", h, res.Objective, ilp.Objective)
		}
	}
	return nil
}

// checkBudgetMonotone: tap/max-coverage's monitored volume must be
// non-decreasing in the device budget, and must reach the instance
// total once the budget admits every edge.
func checkBudgetMonotone(ctx context.Context, c Case) error {
	prev := 0.0
	for budget := 1; budget <= 4; budget++ {
		res, err := repro.Solve(ctx, repro.SolverTapMaxCover, c.In, repro.WithBudget(budget))
		if err != nil {
			return err
		}
		if res.Objective < prev-tol {
			return fmt.Errorf("budget %d covers %g < budget %d's %g", budget, res.Objective, budget-1, prev)
		}
		if res.Objective > c.In.TotalVolume()+tol {
			return fmt.Errorf("budget %d covers %g, more than the instance total %g", budget, res.Objective, c.In.TotalVolume())
		}
		prev = res.Objective
	}
	// With every edge admitted, everything is monitored: each traffic
	// crosses at least one link.
	full, err := repro.Solve(ctx, repro.SolverTapMaxCover, c.In, repro.WithBudget(c.In.G.NumEdges()))
	if err != nil {
		return err
	}
	if total := c.In.TotalVolume(); math.Abs(full.Objective-total) > tol*(1+total) {
		return fmt.Errorf("budget %d (all edges) covers %g, want the instance total %g", c.In.G.NumEdges(), full.Objective, total)
	}
	return nil
}

// checkPostsolveFeasible: every solver's solution, mapped back onto
// the ORIGINAL instance, must satisfy the constraints the solver
// promised — the postsolve/translation layers (MIP presolve, cover
// reductions, LP column bookkeeping) may never leak a truncated or
// infeasible solution.
func checkPostsolveFeasible(ctx context.Context, c Case) error {
	for _, name := range []string{
		repro.SolverTapGreedyGain, repro.SolverTapGreedyLoad, repro.SolverTapFlow,
		repro.SolverTapILP, repro.SolverTapExact, repro.SolverTapPortfolio,
	} {
		res, err := c.solve(ctx, name, c.In)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		pl := res.Taps
		for _, e := range pl.Edges {
			if e < 0 || int(e) >= c.In.G.NumEdges() {
				return fmt.Errorf("%s placed a device on nonexistent edge %d", name, e)
			}
		}
		vol, frac := passive.Coverage(c.In, pl.Edges)
		if frac < c.K-1e-9 {
			return fmt.Errorf("%s covers fraction %g < k = %g", name, frac, c.K)
		}
		if math.Abs(vol-pl.Covered) > 1e-6*(1+math.Abs(vol)) {
			return fmt.Errorf("%s reports covered %g, recomputation gives %g", name, pl.Covered, vol)
		}
	}

	// Sampling: the PPME MILP's δ floors must hold on the original
	// multi-routed instance.
	sol, err := c.solve(ctx, repro.SolverSamplePPME, c.Multi)
	if err != nil {
		return err
	}
	sp := sol.Sampling
	for e, r := range sp.Rates {
		if e < 0 || int(e) >= c.Multi.G.NumEdges() || r < -tol || r > 1+tol {
			return fmt.Errorf("sample/ppme rate[%d] = %g invalid", e, r)
		}
	}
	if promised := simulate.PromisedFraction(c.Multi, sp.Rates); promised < c.K-1e-6 {
		return fmt.Errorf("sample/ppme rates promise coverage %g < k = %g", promised, c.K)
	}

	// Beacons: every probe must have a beacon extremity.
	ps, err := c.probes()
	if err != nil {
		return err
	}
	for _, name := range []string{repro.SolverBeaconThiran, repro.SolverBeaconGreedy, repro.SolverBeaconILP} {
		res, err := c.solve(ctx, name, ps)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		chosen := make(map[graph.NodeID]bool, len(res.Beacons.Beacons))
		for _, b := range res.Beacons.Beacons {
			chosen[b] = true
		}
		for _, p := range ps.Probes {
			if !chosen[p.U] && !chosen[p.V] {
				return fmt.Errorf("%s leaves probe %d–%d without a beacon extremity", name, p.U, p.V)
			}
		}
	}
	return nil
}

// checkSimulateConfirmsPromise: replaying the PPME placement at packet
// level under the Marked discipline must achieve the promised
// Σ δ_p·v_p coverage within sampling tolerance; the analytic
// PromisedFraction and the solver's own Fraction must agree exactly.
func checkSimulateConfirmsPromise(ctx context.Context, c Case) error {
	sol, err := c.solve(ctx, repro.SolverSamplePPME, c.Multi)
	if err != nil {
		return err
	}
	sp := sol.Sampling
	promised := simulate.PromisedFraction(c.Multi, sp.Rates)
	if math.Abs(promised-sp.Fraction) > 1e-6 {
		return fmt.Errorf("solver reports fraction %g, analytic promise is %g", sp.Fraction, promised)
	}
	rep, err := simulate.Run(c.Multi, sp.Rates, simulate.Options{
		Discipline:     simulate.Marked,
		PacketsPerUnit: 60,
		Seed:           c.Seed + 17,
	})
	if err != nil {
		return err
	}
	// Sampling noise: the replay draws one uniform per packet, so the
	// achieved fraction concentrates around the promise at
	// O(1/√packets); 5σ with σ ≤ 1/(2√n) plus discretization slack.
	slack := 5/(2*math.Sqrt(float64(rep.TotalPackets))) + 0.02
	if math.Abs(rep.Fraction-promised) > slack {
		return fmt.Errorf("marked replay achieves %g, promise %g (slack %g, %d packets)",
			rep.Fraction, promised, slack, rep.TotalPackets)
	}
	return nil
}

// probes computes (once per case) the probe set of the POP graph with
// every node as candidate beacon (the §6.1 first phase).
func (c Case) probes() (repro.ProbeSet, error) {
	v, err := c.memo.Do("probes", func() (any, error) {
		n := c.In.G.NumNodes()
		candidates := make([]graph.NodeID, 0, n)
		for nd := 0; nd < n; nd++ {
			candidates = append(candidates, graph.NodeID(nd))
		}
		return repro.ComputeProbes(c.In.G, candidates)
	})
	if err != nil {
		return repro.ProbeSet{}, err
	}
	return v.(repro.ProbeSet), nil
}
