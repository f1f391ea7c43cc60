// Package sampling implements §5 of the paper: passive monitoring with
// packet-sampling devices.
//
// It provides the MILP PPME(h,k) (Linear program 3) that places devices
// and assigns sampling ratios minimizing setup plus exploitation cost,
// the polynomial re-optimization PPME*(x,h,k) for dynamic traffic
// (§5.4) together with the threshold controller of that section, the
// four sampling techniques of §5.2 (time-based, 1-in-N regular,
// probabilistic, and probability-distribution-based), and the traffic
// estimators discussed in §5.2 (SYN-count flow estimation [5], Bayesian
// elephant identification [14], mice/elephant bias measurement).
package sampling

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mip"
)

// CostModel gives the two per-link cost functions of §5.3: costi(e), the
// setup cost of installing a tap device on link e, and coste(e), the
// exploitation cost coefficient charged per unit of sampling ratio.
// The paper notes exploitation cost is "generally a nondecreasing
// concave function" of the rate; LP 3 charges it linearly (that is what
// makes the program a MILP rather than [22]'s nonlinear program), so
// coste(e) is the linear coefficient.
type CostModel struct {
	Install func(e graph.Edge) float64
	Exploit func(e graph.Edge) float64
}

// DefaultCosts charges a unit setup cost per device and an exploitation
// coefficient of 0.5 per full-rate device, so setup dominates but rates
// still matter — the regime the paper's discussion assumes.
func DefaultCosts() CostModel {
	return CostModel{
		Install: func(graph.Edge) float64 { return 1 },
		Exploit: func(graph.Edge) float64 { return 0.5 },
	}
}

func (c CostModel) withDefaults() CostModel {
	d := DefaultCosts()
	if c.Install == nil {
		c.Install = d.Install
	}
	if c.Exploit == nil {
		c.Exploit = d.Exploit
	}
	return c
}

// Config parameterizes PPME solves.
type Config struct {
	// K is the global coverage floor: at least K of the total volume
	// must be monitored.
	K float64
	// H holds the per-traffic floors h_t (one entry per traffic of the
	// instance, h_t ∈ [0,1]); nil means no per-traffic floor. The paper
	// notes h_t ≤ k; Validate enforces it.
	H []float64
	// Costs is the cost model; zero value = DefaultCosts.
	Costs CostModel
	// MaxNodes caps the MILP branch-and-bound (0 = default).
	MaxNodes int
	// Gap is the absolute optimality gap for branch-and-bound pruning
	// (0 = solver default).
	Gap float64
	// RelGap is the relative optimality gap (0 = off); see mip.Options.
	RelGap float64
}

func (cfg Config) validate(in *core.MultiInstance) error {
	if cfg.K <= 0 || cfg.K > 1 {
		return fmt.Errorf("sampling: K = %g outside (0,1]", cfg.K)
	}
	if cfg.H != nil {
		if len(cfg.H) != len(in.Traffics) {
			return fmt.Errorf("sampling: %d per-traffic floors for %d traffics", len(cfg.H), len(in.Traffics))
		}
		for t, h := range cfg.H {
			if h < 0 || h > 1 {
				return fmt.Errorf("sampling: h[%d] = %g outside [0,1]", t, h)
			}
			if h > cfg.K+1e-12 {
				return fmt.Errorf("sampling: h[%d] = %g exceeds k = %g (paper requires h_t ≤ k)", t, h, cfg.K)
			}
		}
	}
	return nil
}

// Solution is the result of a PPME or PPME* solve.
type Solution struct {
	// Edges lists links carrying a device (x_e = 1), sorted.
	Edges []graph.EdgeID
	// Rates holds the sampling ratio r_e of every equipped link.
	Rates map[graph.EdgeID]float64
	// PathShares holds δ_p per flattened path (same order as
	// MultiInstance.Paths).
	PathShares []float64
	// SetupCost and ExploitCost split the objective; Cost is their sum.
	SetupCost, ExploitCost, Cost float64
	// Covered is the monitored volume Σ δ_p·v_p; Fraction divides by
	// the total volume.
	Covered, Fraction float64
	// Exact is true when the MILP solved to optimality (always true for
	// the LP-based PPME*); a canceled or node-capped solve reports its
	// incumbent with Exact = false.
	Exact bool
	// Stats carries the solver effort counters.
	Stats core.SolveStats
}

// Devices returns the number of installed devices.
func (s *Solution) Devices() int { return len(s.Edges) }

// Rate returns the sampling ratio assigned to edge e (0 when no device).
func (s *Solution) Rate(e graph.EdgeID) float64 { return s.Rates[e] }

// Solve solves PPME(h,k) — Linear program 3 of §5.3 — exactly: which
// links get a sampling-capable device and at which ratio, minimizing
// setup plus exploitation cost subject to the per-traffic floors h and
// the global floor k. Cancelling ctx mid-solve returns the best
// incumbent found so far with Exact = false (the full-rate warm start
// guarantees one exists).
func Solve(ctx context.Context, in *core.MultiInstance, cfg Config) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	costs := cfg.Costs.withDefaults()
	paths := in.Paths()
	m := in.G.NumEdges()

	p := mip.NewProblem(lp.Minimize)
	xs := make([]lp.Var, m)
	rs := make([]lp.Var, m)
	for e := 0; e < m; e++ {
		edge := in.G.Edge(graph.EdgeID(e))
		xs[e] = p.AddBinaryVariable(fmt.Sprintf("x%d", e), costs.Install(edge))
		rs[e] = p.AddVariable(fmt.Sprintf("r%d", e), 0, 1, costs.Exploit(edge))
	}
	ds := make([]lp.Var, len(paths))
	for pi := range paths {
		ds[pi] = p.AddVariable(fmt.Sprintf("d%d", pi), 0, 1, 0)
	}

	buildRows(p.AddConstraint, in, paths, cfg, xs, rs, ds)

	// Warm start: everything installed at full rate is always feasible
	// (δ_p = 1 everywhere); it gives branch-and-bound a finite bound
	// from the first node.
	inc := make([]float64, p.NumVariables())
	for e := 0; e < m; e++ {
		inc[xs[e]] = 1
		inc[rs[e]] = 1
	}
	for pi := range paths {
		inc[ds[pi]] = 1
	}
	p.SetOptions(mip.Options{MaxNodes: cfg.MaxNodes, Gap: cfg.Gap, RelGap: cfg.RelGap, Incumbent: inc})
	sol, err := p.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	exact := true
	switch sol.Status {
	case lp.Optimal:
	case lp.Canceled, lp.IterLimit:
		if sol.X == nil {
			return nil, fmt.Errorf("sampling: PPME solve ended with status %v and no incumbent", sol.Status)
		}
		exact = false
	default:
		return nil, fmt.Errorf("sampling: PPME solve ended with status %v", sol.Status)
	}
	out := extract(in, paths, cfg, costs, xs, rs, ds, sol.X, exact)
	out.Stats = sol.SolveStats
	return out, nil
}

// constraintAdder matches both lp.Problem.AddConstraint and
// mip.Problem.AddConstraint.
type constraintAdder func(rel lp.Rel, rhs float64, terms ...lp.Term)

// buildRows adds the LP 3 constraint rows shared by Solve and
// SolveRates:
//
//	Σ_{e∈p} r_e ≥ δ_p                  per path
//	x_e ≥ r_e                          per edge (Solve only; xs nil skips)
//	Σ_{p∈P_t} δ_p v_p ≥ h_t Σ v_p      per traffic with a floor
//	Σ_p δ_p v_p ≥ k Σ_p v_p            global
func buildRows(add constraintAdder, in *core.MultiInstance, paths []core.FlatPath, cfg Config, xs, rs, ds []lp.Var) {
	for pi, fp := range paths {
		terms := make([]lp.Term, 0, fp.Path.Len()+1)
		for _, e := range fp.Path.Edges {
			terms = append(terms, lp.Term{Var: rs[e], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: ds[pi], Coef: -1})
		add(lp.GE, 0, terms...)
	}
	if xs != nil {
		for e := range xs {
			add(lp.GE, 0, lp.Term{Var: xs[e], Coef: 1}, lp.Term{Var: rs[e], Coef: -1})
		}
	}
	if cfg.H != nil {
		for ti, t := range in.Traffics {
			if cfg.H[ti] <= 0 {
				continue
			}
			var terms []lp.Term
			for pi, fp := range paths {
				if fp.Traffic == ti {
					terms = append(terms, lp.Term{Var: ds[pi], Coef: fp.Volume})
				}
			}
			add(lp.GE, cfg.H[ti]*t.Volume(), terms...)
		}
	}
	global := make([]lp.Term, len(paths))
	for pi, fp := range paths {
		global[pi] = lp.Term{Var: ds[pi], Coef: fp.Volume}
	}
	add(lp.GE, cfg.K*in.TotalVolume(), global...)
}

// extract converts raw solver values into a Solution.
func extract(in *core.MultiInstance, paths []core.FlatPath, cfg Config, costs CostModel, xs, rs, ds []lp.Var, x []float64, exact bool) *Solution {
	s := &Solution{
		Rates:      make(map[graph.EdgeID]float64),
		PathShares: make([]float64, len(paths)),
		Exact:      exact,
	}
	for e := range rs {
		id := graph.EdgeID(e)
		edge := in.G.Edge(id)
		installed := false
		if xs != nil {
			installed = x[xs[e]] > 0.5
		} else {
			installed = x[rs[e]] > 1e-9
		}
		if !installed {
			continue
		}
		s.Edges = append(s.Edges, id)
		r := x[rs[e]]
		if r < 0 {
			r = 0
		}
		if r > 1 {
			r = 1
		}
		s.Rates[id] = r
		s.SetupCost += costs.Install(edge)
		s.ExploitCost += costs.Exploit(edge) * r
	}
	sort.Slice(s.Edges, func(i, j int) bool { return s.Edges[i] < s.Edges[j] })
	for pi, fp := range paths {
		d := x[ds[pi]]
		if d < 0 {
			d = 0
		}
		if d > 1 {
			d = 1
		}
		s.PathShares[pi] = d
		s.Covered += d * fp.Volume
	}
	if tv := in.TotalVolume(); tv > 0 {
		s.Fraction = s.Covered / tv
	}
	s.Cost = s.SetupCost + s.ExploitCost
	return s
}

// SolveRates solves PPME*(x,h,k) of §5.4: device positions are frozen
// (the installed list), only sampling ratios are re-optimized. With the
// binaries gone the model is a pure LP, solved in polynomial time — the
// operation the paper's dynamic-traffic strategy performs on every
// threshold crossing. It returns an error when the installed devices
// cannot reach the floors even at full rate.
func SolveRates(ctx context.Context, in *core.MultiInstance, installed []graph.EdgeID, cfg Config) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	costs := cfg.Costs.withDefaults()
	paths := in.Paths()
	m := in.G.NumEdges()
	has := make([]bool, m)
	for _, e := range installed {
		has[e] = true
	}

	p := lp.NewProblem(lp.Minimize)
	rs := make([]lp.Var, m)
	for e := 0; e < m; e++ {
		hi := 0.0
		if has[e] {
			hi = 1.0
		}
		// Uninstalled links are fixed at rate 0 (their x_e is a frozen
		// constant 0 in the paper's formulation).
		rs[e] = p.AddVariable(fmt.Sprintf("r%d", e), 0, hi, costs.Exploit(in.G.Edge(graph.EdgeID(e))))
	}
	ds := make([]lp.Var, len(paths))
	for pi := range paths {
		ds[pi] = p.AddVariable(fmt.Sprintf("d%d", pi), 0, 1, 0)
	}
	buildRows(p.AddConstraint, in, paths, cfg, nil, rs, ds)

	sol, err := p.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("sampling: installed devices cannot reach k=%g even at full rate", cfg.K)
	default:
		return nil, fmt.Errorf("sampling: PPME* solve ended with status %v", sol.Status)
	}
	out := extract(in, paths, cfg, costs, nil, rs, ds, sol.X, true)
	out.Stats.Pivots = sol.Iterations
	out.Stats.Refactorizations = sol.Refactorizations
	out.Stats.DevexResets = sol.DevexResets
	// The installed set is an input for PPME*: report it as-is, with
	// explicit zero rates for devices the optimum leaves idle, and count
	// setup cost as sunk (only exploitation spending is reported).
	out.Edges = append([]graph.EdgeID(nil), installed...)
	sort.Slice(out.Edges, func(i, j int) bool { return out.Edges[i] < out.Edges[j] })
	for _, e := range out.Edges {
		if _, ok := out.Rates[e]; !ok {
			out.Rates[e] = 0
		}
	}
	out.SetupCost = 0
	out.Cost = out.ExploitCost
	return out, nil
}

// MaxAchievable returns the largest global coverage fraction the
// installed devices can reach at full sampling rate — the feasibility
// ceiling of PPME*(x,·,·).
func MaxAchievable(in *core.MultiInstance, installed []graph.EdgeID) float64 {
	has := make([]bool, in.G.NumEdges())
	for _, e := range installed {
		has[e] = true
	}
	covered := 0.0
	for _, fp := range in.Paths() {
		for _, e := range fp.Path.Edges {
			if has[e] {
				covered += fp.Volume
				break
			}
		}
	}
	tv := in.TotalVolume()
	if tv == 0 {
		return 0
	}
	return covered / tv
}
