// Package experiments regenerates every figure of the paper's
// evaluation. Each function reproduces one figure as a stats.Series
// (the textual equivalent of the plot) averaged over `seeds` runs, as
// the paper averages over 20 simulations. cmd/repro prints them and
// times them for its -bench-json report; bench_test.go at the module
// root benchmarks them; EXPERIMENTS.md records paper-versus-measured
// shapes.
//
// Every multi-seed figure takes the caller's internal/engine runner
// and fans its seed × sweep-point cells out on it: cells run
// concurrently on a bounded worker pool, instances and exact solves are
// memoized behind canonical keys in the runner's cache, and results are
// merged in canonical serial order, so the series are byte-identical
// whatever the worker count. The caller picks the parallelism and
// decides which figures share a cache.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/passive"
	"repro/internal/sampling"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// DefaultSeeds is the paper's run count per point ("all the results are
// an average over 20 simulations").
const DefaultSeeds = 20

// KSweep is the x axis of Figures 7 and 8 (percentage of monitored
// traffic, starting from 75%).
var KSweep = []float64{0.75, 0.80, 0.85, 0.90, 0.95, 1.00}

// cached memoizes compute under the runner's cache with a typed
// result — for ctx-independent builds (instances, routed traffic).
func cached[T any](eng *engine.Runner, key string, compute func() T) T {
	v, _ := eng.Cached(key, func() (any, error) { return compute(), nil })
	return v.(T)
}

// cachedSolve memoizes a ctx-consulting solve: if ctx fires mid-solve
// the degraded incumbent is returned but not retained, so a later
// unhurried run on the same runner re-solves instead of silently
// serving stale incumbents.
func cachedSolve[T any](ctx context.Context, eng *engine.Runner, key string, compute func() T) T {
	v, _ := eng.CachedUnlessCanceled(ctx, key, func() (any, error) { return compute(), nil })
	return v.(T)
}

// runSweep fans the seed × point grid of one figure out on eng and
// merges the per-cell samples into s in canonical serial order
// (seed-major, point-minor) — the order the historical seed loops used —
// so the rendered series is bit-identical for any worker count. A cell
// may return no samples (a skipped sweep point); cells leave
// Sample.Rank zero — runSweep stamps every sample with its cell's task
// index, the canonical merge position.
func runSweep(ctx context.Context, eng *engine.Runner, s *stats.Series, seeds, points int, cell func(ctx context.Context, seed, point int) []stats.Sample) {
	results, err := engine.Map(ctx, eng, seeds*points, func(ctx context.Context, i int) ([]stats.Sample, error) {
		return cell(ctx, i/points, i%points), nil
	})
	if err != nil {
		// Cells report failures by panicking (as the historical serial
		// loops did); Map errors cannot happen here.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	for i, ss := range results {
		for j := range ss {
			ss[j].Rank = i
		}
		s.AddSamples(ss...)
	}
}

// instance builds the POP + routed traffic of one run.
func instance(cfg topology.Config, seed int64) *core.Instance {
	cfg.Seed = seed
	pop := topology.Generate(cfg)
	demands := traffic.Demands(pop, traffic.Config{Seed: seed})
	in, err := traffic.Route(pop, demands)
	if err != nil {
		panic(fmt.Sprintf("experiments: routing: %v", err))
	}
	return in
}

// cachedInstance memoizes instance construction per (cfg, seed): every
// sweep-point cell of the same seed shares one build.
func cachedInstance(eng *engine.Runner, cfg topology.Config, seed int64) *core.Instance {
	key := engine.MustKey("experiments/instance", nil, cfg, seed)
	return cached(eng, key, func() *core.Instance { return instance(cfg, seed) })
}

// PassivePlacement reproduces Figures 7 and 8: device counts of the
// load-order greedy versus the exact optimum (the paper's ILP curve)
// across the monitored-traffic sweep, averaged over seeds runs.
//
// The exact column is computed with the combinatorial branch-and-bound
// (Theorem 1 view), which provably returns the same optima as the
// paper's CPLEX-solved MIP — internal/passive's tests cross-check the
// two on smaller instances.
func PassivePlacement(ctx context.Context, eng *engine.Runner, cfg topology.Config, figure string, seeds, maxNodes int) *stats.Series {
	s := stats.NewSeries(
		figure+": passive monitoring devices placement",
		"% monitored", "number of monitoring devices",
		"Greedy algorithm", "ILP",
	)
	runSweep(ctx, eng, s, seeds, len(KSweep), func(ctx context.Context, seed, point int) []stats.Sample {
		in := cachedInstance(eng, cfg, int64(seed))
		k := KSweep[point]
		g := passive.GreedyLoad(in, k)
		ex := cachedSolve(ctx, eng, engine.MustKey("tap/exact", in, k, maxNodes), func() passive.Placement {
			pl := passive.ExactCover(ctx, in, k, cover.ExactOptions{MaxNodes: maxNodes, Workers: eng.Workers()})
			eng.AddStats(pl.Stats)
			return pl
		})
		x := k * 100
		return []stats.Sample{
			{X: x, Column: "Greedy algorithm", Value: float64(g.Devices())},
			{X: x, Column: "ILP", Value: float64(ex.Devices())},
		}
	})
	return s
}

// Fig7 is the 10-router POP of Figure 7 (27 links, 132 traffics).
func Fig7(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	return PassivePlacement(ctx, eng, topology.Paper10, "Figure 7 (10-router POP)", seeds, 0)
}

// Fig8 is the 15-router POP of Figure 8 (71 links, 1980 traffics).
// Fig8 caps the branch-and-bound at 100k nodes per point: the k = 95%
// and 100% points of this instance are hard for our solver (CPLEX
// closes them; see EXPERIMENTS.md); the returned incumbents are upper
// bounds within ~1 device of optimal and preserve the figure's shape.
// The budget was retuned from 400k after the search was strengthened
// (presolve, dominance, Lagrangian duals): across a 20-seed sweep of
// all six k points, 100k reproduces the 400k incumbents at 118 of 120
// points — the two exceptions (seed 9 k=0.95, seed 13 k=1.00) sit one
// device higher, and the larger budget only ever held incumbents
// there, not optimality proofs — at a quarter of the node cost.
func Fig8(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	return PassivePlacement(ctx, eng, topology.Paper15, "Figure 8 (15-router POP)", seeds, 100_000)
}

// beaconSeed is the pre-drawn scenario of one seed of a beacon figure:
// the POP and the per-sweep-point candidate sets. Candidate draws
// consume a sequential per-seed rand stream, so they are generated
// serially up front and only the solves fan out.
type beaconSeed struct {
	pop   *topology.POP
	cands [][]graph.NodeID // indexed by sweep point; nil = skipped
}

// BeaconPlacement reproduces Figures 9–11: beacons selected by the
// algorithm of [15] (Thiran), the paper's greedy, and the exact ILP, as
// the candidate set V_B grows. Candidates are random router subsets,
// re-drawn per seed.
func BeaconPlacement(ctx context.Context, eng *engine.Runner, cfg topology.Config, figure string, seeds int, vbSweep []int) *stats.Series {
	s := stats.NewSeries(
		figure+": active monitoring beacons placement",
		"selectable beacons", "number of beacons selected",
		"Thiran", "Greedy", "ILP",
	)
	scenarios := make([]beaconSeed, seeds)
	for seed := 0; seed < seeds; seed++ {
		cfg := cfg
		cfg.Seed = int64(seed)
		pop := topology.Generate(cfg)
		routers := routerIDs(pop)
		rng := rand.New(rand.NewSource(int64(seed) * 7919))
		sc := beaconSeed{pop: pop, cands: make([][]graph.NodeID, len(vbSweep))}
		for vi, nb := range vbSweep {
			if nb > len(routers) {
				continue
			}
			sc.cands[vi] = sampleNodes(rng, routers, nb)
		}
		scenarios[seed] = sc
	}
	runSweep(ctx, eng, s, seeds, len(vbSweep), func(ctx context.Context, seed, point int) []stats.Sample {
		sc := scenarios[seed]
		cands := sc.cands[point]
		if cands == nil {
			return nil
		}
		// The |V_B| sweep re-draws candidates from one per-seed router
		// pool, so sweep points recompute mostly-overlapping shortest-
		// path trees; memoizing per (figure, seed, router) computes each
		// tree once per seed. A graph.Tree is never modified after
		// construction, so concurrent sweep points share it read-only.
		treeOf := func(u graph.NodeID) *graph.Tree {
			key := engine.MustKey("active/sptree", nil, figure, seed, int(u))
			return cached(eng, key, func() *graph.Tree {
				return sc.pop.G.ShortestPathTree(u)
			})
		}
		ps, err := active.ComputeProbesTrees(sc.pop.G, cands, treeOf)
		if err != nil {
			panic(fmt.Sprintf("experiments: probes: %v", err))
		}
		th, err := active.PlaceThiran(ps)
		if err != nil {
			panic(err)
		}
		gr, err := active.PlaceGreedy(ps)
		if err != nil {
			panic(err)
		}
		il := cachedSolve(ctx, eng, engine.MustKey("beacon/ilp", ps), func() active.Placement {
			pl, err := active.PlaceILP(ctx, ps)
			if err != nil {
				panic(err)
			}
			eng.AddStats(pl.Stats)
			return pl
		})
		x := float64(vbSweep[point])
		return []stats.Sample{
			{X: x, Column: "Thiran", Value: float64(th.Devices())},
			{X: x, Column: "Greedy", Value: float64(gr.Devices())},
			{X: x, Column: "ILP", Value: float64(il.Devices())},
		}
	})
	return s
}

func routerIDs(pop *topology.POP) []graph.NodeID {
	out := append([]graph.NodeID(nil), pop.Backbone...)
	return append(out, pop.Access...)
}

func sampleNodes(rng *rand.Rand, from []graph.NodeID, n int) []graph.NodeID {
	perm := rng.Perm(len(from))
	out := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = from[perm[i]]
	}
	return out
}

// vbSweep returns 2,4,...,max (the paper sweeps |V_B| up to the router
// count).
func vbSweep(max int) []int {
	var out []int
	for nb := 2; nb <= max; nb += 2 {
		out = append(out, nb)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Fig9 is the 15-router beacon experiment of Figure 9.
func Fig9(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	return BeaconPlacement(ctx, eng, topology.Paper15, "Figure 9 (15-router POP)", seeds, vbSweep(15))
}

// Fig10 is the 29-router beacon experiment of Figure 10.
func Fig10(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	return BeaconPlacement(ctx, eng, topology.Paper29, "Figure 10 (29-router POP)", seeds, vbSweep(29))
}

// Fig11 is the 80-router beacon experiment of Figure 11.
func Fig11(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	return BeaconPlacement(ctx, eng, topology.Paper80, "Figure 11 (80-router POP)", seeds, vbSweep(80))
}

// Large150 is the paper's §7 outlook ("we are also currently testing
// our solution on larger POPs, with at least 150 routers"): the beacon
// comparison on a 150-router POP, sweeping a coarse candidate grid.
func Large150(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	cfg := topology.Config{Routers: 150, InterRouterLinks: 280, Endpoints: 80}
	return BeaconPlacement(ctx, eng, cfg, "§7 outlook (150-router POP)", seeds, []int{10, 30, 60, 90, 120, 150})
}

// Fig6 reproduces Figure 6: the non-uniform traffic weight over a
// simple POP. It writes the per-link load shares as text and optionally
// the DOT rendering (edge thickness ∝ load share, as in the paper's
// figure). Fig6 is a single deterministic render with no seed loop, so
// it does not fan out on the engine.
func Fig6(seed int64, text io.Writer, dot io.Writer) error {
	cfg := topology.Config{Routers: 6, InterRouterLinks: 9, Endpoints: 6, Seed: seed}
	pop := topology.Generate(cfg)
	demands := traffic.Demands(pop, traffic.Config{Seed: seed})
	in, err := traffic.Route(pop, demands)
	if err != nil {
		return err
	}
	loads := in.EdgeLoads()
	total := 0.0
	for _, l := range loads {
		total += l
	}
	fmt.Fprintf(text, "# Figure 6: traffic weight on a simple POP (seed %d)\n", seed)
	fmt.Fprintf(text, "# %d routers, %d endpoints, %d links; non-uniform matrix with preferred pairs\n",
		pop.Routers(), len(pop.Endpoints), pop.G.NumEdges())
	fmt.Fprintf(text, "%-8s %-14s %-14s %10s\n", "link", "from", "to", "% of load")
	for e, l := range loads {
		edge := pop.G.Edge(graph.EdgeID(e))
		fmt.Fprintf(text, "%-8d %-14s %-14s %9.2f%%\n",
			e, pop.G.Label(edge.U), pop.G.Label(edge.V), 100*l/total)
	}
	if dot != nil {
		maxLoad := stats.Max(loads)
		return pop.G.WriteDOT(dot, graph.DOTOptions{
			Name: "fig6",
			EdgeWidth: func(e graph.Edge) float64 {
				if maxLoad == 0 {
					return 1
				}
				return 0.5 + 4*loads[e.ID]/maxLoad
			},
			NodeShape: func(n graph.NodeID) string {
				switch pop.Kind[n] {
				case topology.Backbone:
					return "box"
				case topology.Access:
					return "ellipse"
				default:
					return "point"
				}
			},
		})
	}
	return nil
}

// ppmeKSweep is the coverage sweep of the §5 cost experiment.
var ppmeKSweep = []float64{0.75, 0.85, 0.95}

// cachedMulti memoizes the 2-route multi-instance build of one
// (cfg, seed) — the §5 experiments' input.
func cachedMulti(eng *engine.Runner, cfg topology.Config, seed int64) *core.MultiInstance {
	key := engine.MustKey("experiments/multi", nil, cfg, seed, 2)
	return cached(eng, key, func() *core.MultiInstance {
		cfg := cfg
		cfg.Seed = seed
		pop := topology.Generate(cfg)
		demands := traffic.Demands(pop, traffic.Config{Seed: seed})
		mi, err := traffic.RouteMulti(pop, demands, 2)
		if err != nil {
			panic(err)
		}
		return mi
	})
}

// PPMECost is the §5 experiment (no figure in the paper): total
// setup+exploitation cost of PPME(h,k) across the coverage sweep on a
// multi-routed 10-router POP, compared with the cost of the PPM
// placement run at full rate.
func PPMECost(ctx context.Context, eng *engine.Runner, seeds int) *stats.Series {
	s := stats.NewSeries(
		"§5: PPME(h,k) cost vs full-rate PPM placement",
		"% monitored", "total cost (setup + exploitation)",
		"PPME cost", "PPME devices", "PPM full-rate cost",
	)
	// §5 has no prescribed instance; a compact POP keeps the MILP fast.
	cfg := topology.Config{Routers: 7, InterRouterLinks: 11, Endpoints: 8}
	costs := sampling.DefaultCosts()
	runSweep(ctx, eng, s, seeds, len(ppmeKSweep), func(ctx context.Context, seed, point int) []stats.Sample {
		mi := cachedMulti(eng, cfg, int64(seed))
		k := ppmeKSweep[point]
		sol := cachedSolve(ctx, eng, engine.MustKey("sample/ppme", mi, k, 20000, "costs=default"), func() *sampling.Solution {
			sol, err := sampling.Solve(ctx, mi, sampling.Config{K: k, Costs: costs, MaxNodes: 20000})
			if err != nil {
				panic(err)
			}
			eng.AddStats(sol.Stats)
			return sol
		})
		// Baseline on the same instance: devices without rate control pay
		// install + full-rate exploitation; minimizing that total is PPME
		// with the exploitation coefficient folded into the install cost.
		fullRate := sampling.CostModel{
			Install: func(e graph.Edge) float64 { return costs.Install(e) + costs.Exploit(e) },
			Exploit: func(graph.Edge) float64 { return 0 },
		}
		base := cachedSolve(ctx, eng, engine.MustKey("sample/ppme", mi, k, 20000, "costs=fullrate"), func() *sampling.Solution {
			sol, err := sampling.Solve(ctx, mi, sampling.Config{K: k, Costs: fullRate, MaxNodes: 20000})
			if err != nil {
				panic(err)
			}
			eng.AddStats(sol.Stats)
			return sol
		})
		x := k * 100
		return []stats.Sample{
			{X: x, Column: "PPME cost", Value: sol.Cost},
			{X: x, Column: "PPME devices", Value: float64(sol.Devices())},
			{X: x, Column: "PPM full-rate cost", Value: base.Cost},
		}
	})
	return s
}

// DynamicResult summarizes the §5.4 dynamic-traffic experiment on one
// seed.
type DynamicResult struct {
	Seed               int64
	Rounds, Recomputes int
	// MinCoverage is the worst achieved coverage right before an
	// adaptation; FinalCoverage the coverage after the last round.
	MinCoverage, FinalCoverage float64
	// ReoptTime is the cumulative PPME* solve time — the quantity §5.4
	// argues is small enough for on-line use.
	ReoptTime time.Duration
}

// Dynamic runs the §5.4 controller over `rounds` drift steps of ±drift
// relative volume change for seeds 0..seeds-1, fanned out on eng, and
// returns the per-seed adaptation statistics in seed order.
func Dynamic(ctx context.Context, eng *engine.Runner, seeds, rounds int, drift float64) ([]DynamicResult, error) {
	return engine.Map(ctx, eng, seeds, func(ctx context.Context, i int) (DynamicResult, error) {
		return dynamicSeed(ctx, int64(i), rounds, drift)
	})
}

// dynamicSeed is one seed of Dynamic. The run is inherently sequential:
// the controller reacts round by round.
func dynamicSeed(ctx context.Context, seed int64, rounds int, drift float64) (DynamicResult, error) {
	cfg := topology.Config{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: seed}
	pop := topology.Generate(cfg)
	demands := traffic.Demands(pop, traffic.Config{Seed: seed})
	mi, err := traffic.RouteMulti(pop, demands, 2)
	if err != nil {
		return DynamicResult{}, err
	}
	// Place devices once with PPME at k=0.9, then only rates adapt.
	k := 0.9
	sol, err := sampling.Solve(ctx, mi, sampling.Config{K: k, MaxNodes: 20000})
	if err != nil {
		return DynamicResult{}, err
	}
	ctl, err := sampling.NewController(ctx, mi, sol.Edges, sampling.Config{K: k}, 0.88)
	if err != nil {
		return DynamicResult{}, err
	}
	res := DynamicResult{Seed: seed, Rounds: rounds, MinCoverage: 1}
	cur := demands
	for r := 0; r < rounds; r++ {
		cur = traffic.Perturb(cur, drift, seed*1000+int64(r))
		mi, err = traffic.RouteMulti(pop, cur, 2)
		if err != nil {
			return DynamicResult{}, err
		}
		before := ctl.AchievedFraction(mi)
		if before < res.MinCoverage {
			res.MinCoverage = before
		}
		start := time.Now()
		recomputed, err := ctl.Observe(ctx, mi)
		if err != nil {
			if ctx.Err() != nil {
				// The run's deadline fired mid-reoptimization: that is a
				// caller-imposed stop, not starvation — report it as such.
				return DynamicResult{}, ctx.Err()
			}
			// Drift starved the installed set: even full-rate sampling
			// cannot reach k anymore. The operator would fall back to
			// PPME (add devices); we stop and report the rounds run.
			res.Rounds = r + 1
			res.FinalCoverage = before
			return res, nil
		}
		if recomputed {
			res.ReoptTime += time.Since(start)
			res.Recomputes++
		}
	}
	res.FinalCoverage = ctl.AchievedFraction(mi)
	return res, nil
}

// samplerPeriods is the x axis of the §5.2 bias experiment.
var samplerPeriods = []int{10, 100, 1000}

// SamplerBias reproduces the §5.2 discussion (the Metropolis study
// quoted by the paper): how the sampling techniques distort mice
// statistics as the period N grows — with 1-in-1000 sampling, most mice
// flows are never seen at all. The per-period cells fan out on eng.
func SamplerBias(ctx context.Context, eng *engine.Runner, seed int64) *stats.Series {
	s := stats.NewSeries(
		"§5.2: sampling bias — % of mice flows entirely missed",
		"period N", "% mice missed",
		"regular", "probabilistic", "geometric",
	)
	trace, truth, err := simulate.GenerateTrace(simulate.TraceConfig{
		Mice: 2000, Elephants: 20, MicePackets: 4, ElephantPackets: 3000, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	mice := 0
	//placevet:ignore maporder -- commutative integer count; no order can leak into the figure
	for _, n := range truth {
		if n < 1000 {
			mice++
		}
	}
	runSweep(ctx, eng, s, 1, len(samplerPeriods), func(_ context.Context, _, point int) []stats.Sample {
		n := samplerPeriods[point]
		var out []stats.Sample
		for _, sc := range []struct {
			name string
			smp  sampling.Sampler
		}{
			{"regular", sampling.NewRegular(n)},
			{"probabilistic", sampling.NewProbabilistic(n, seed)},
			{"geometric", sampling.NewGeometric(n, seed)},
		} {
			st := sampling.CollectTrace(sc.smp, trace)
			rep := sampling.MeasureBias(truth, st, 1/float64(n), 1000)
			out = append(out, stats.Sample{
				X: float64(n), Column: sc.name,
				Value: 100 * float64(rep.MissedMice) / float64(mice),
			})
		}
		return out
	})
	return s
}

// ReplayOutcome is one seed's promised-versus-achieved coverage pair
// from the packet-replay validation.
type ReplayOutcome struct {
	Seed               int64
	Promised, Achieved float64
}

// Replay validates PPME solutions at coverage k by packet replay (the
// simulate substrate) for seeds 0..seeds-1, fanned out on eng, and
// returns the outcomes in seed order.
func Replay(ctx context.Context, eng *engine.Runner, seeds int, k float64) ([]ReplayOutcome, error) {
	return engine.Map(ctx, eng, seeds, func(ctx context.Context, i int) (ReplayOutcome, error) {
		return replaySeed(ctx, int64(i), k)
	})
}

// replaySeed is one seed of Replay.
func replaySeed(ctx context.Context, seed int64, k float64) (ReplayOutcome, error) {
	cfg := topology.Config{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: seed}
	pop := topology.Generate(cfg)
	demands := traffic.Demands(pop, traffic.Config{Seed: seed})
	mi, err := traffic.RouteMulti(pop, demands, 2)
	if err != nil {
		return ReplayOutcome{}, err
	}
	sol, err := sampling.Solve(ctx, mi, sampling.Config{K: k, MaxNodes: 20000})
	if err != nil {
		return ReplayOutcome{}, err
	}
	promised := simulate.PromisedFraction(mi, sol.Rates)
	res, err := simulate.Run(mi, sol.Rates, simulate.Options{Seed: seed, PacketsPerUnit: 100})
	if err != nil {
		return ReplayOutcome{}, err
	}
	return ReplayOutcome{Seed: seed, Promised: promised, Achieved: res.Fraction}, nil
}
