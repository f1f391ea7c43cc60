// Benchmarks regenerating every figure of the paper's evaluation (one
// benchmark per figure, DESIGN.md §3) plus the ablation studies of
// DESIGN.md §6. Each figure benchmark runs a reduced number of seeds
// per iteration so `go test -bench=.` finishes in minutes; cmd/repro
// reproduces the same series at the paper's full 20-seed averaging.
package repro

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/passive"
	"repro/internal/sampling"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// benchSeeds is the per-iteration averaging depth of the figure
// benchmarks (the paper uses 20; cmd/repro defaults to 20).
const benchSeeds = 3

// figureRunner is a GOMAXPROCS-worker engine with a fresh cache, so
// benchmark iterations never share memoized solves.
func figureRunner() *engine.Runner {
	return engine.New(engine.Options{Cache: engine.NewCache()})
}

func BenchmarkFig6TrafficWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6(int64(i), io.Discard, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Passive10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Fig7(context.Background(), figureRunner(), benchSeeds)
		sanityPassive(b, s)
	}
}

func BenchmarkFig8Passive15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Fig8(context.Background(), figureRunner(), 1) // the heavy instance: one seed per iteration
		sanityPassive(b, s)
	}
}

// sanityEps absorbs round-off when comparing per-seed means of solver
// objectives: an exact optimum may exceed a heuristic's value by float
// noise without being wrong.
const sanityEps = 1e-6

func sanityPassive(b *testing.B, s interface {
	MeanAt(float64, string) float64
}) {
	b.Helper()
	for _, k := range []float64{75, 100} {
		g := s.MeanAt(k, "Greedy algorithm")
		opt := s.MeanAt(k, "ILP")
		if opt > g+sanityEps {
			b.Fatalf("at %g%%: ILP %g above greedy %g", k, opt, g)
		}
	}
}

func BenchmarkFig9Beacons15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sanityBeacons(b, experiments.Fig9(context.Background(), figureRunner(), benchSeeds), 15)
	}
}

func BenchmarkFig10Beacons29(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sanityBeacons(b, experiments.Fig10(context.Background(), figureRunner(), benchSeeds), 29)
	}
}

func BenchmarkFig11Beacons80(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sanityBeacons(b, experiments.Fig11(context.Background(), figureRunner(), 1), 80)
	}
}

func sanityBeacons(b *testing.B, s interface {
	MeanAt(float64, string) float64
}, maxVB int) {
	b.Helper()
	x := float64(maxVB)
	il := s.MeanAt(x, "ILP")
	th := s.MeanAt(x, "Thiran")
	gr := s.MeanAt(x, "Greedy")
	if il > gr+sanityEps || il > th+sanityEps {
		b.Fatalf("|V_B|=%d: ILP %g above greedy %g / thiran %g", maxVB, il, gr, th)
	}
}

func BenchmarkPPMECost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.PPMECost(context.Background(), figureRunner(), 1)
	}
}

func BenchmarkPPMEStarDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Dynamic(context.Background(), figureRunner(), benchSeeds, 10, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.FinalCoverage <= 0 {
				b.Fatalf("seed %d: dynamic run collapsed", res.Seed)
			}
		}
	}
}

// fig7Instance builds one Figure 7 instance for the extension benches.
func fig7Instance(seed int64) *Instance {
	cfg := topology.Paper10
	cfg.Seed = seed
	pop := topology.Generate(cfg)
	in, err := traffic.Route(pop, traffic.Demands(pop, traffic.Config{Seed: seed}))
	if err != nil {
		panic(err)
	}
	return in
}

// BenchmarkIncrementalPlacement measures the §4.3 incremental variant:
// re-optimize around two frozen devices.
func BenchmarkIncrementalPlacement(b *testing.B) {
	in := fig7Instance(1)
	base := passive.GreedyLoad(in, 0.8)
	installed := base.Edges
	if len(installed) > 2 {
		installed = installed[:2]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := passive.SolveILP(context.Background(), in, 0.95, passive.ILPOptions{Installed: installed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetedPlacement measures the §4.3 limited-device variant.
func BenchmarkBudgetedPlacement(b *testing.B) {
	in := fig7Instance(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := passive.MaxCoverage(context.Background(), in, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// fig7CoverMIP builds the partial-cover MIP of the Figure 7 instance:
// binary x_e per edge, continuous coverage indicator δ_t per traffic,
// and a k·total volume floor. Shared by the branching, pricing and
// simplex-algorithm ablations.
func fig7CoverMIP(in *Instance, opts mip.Options) *mip.Problem {
	p := mip.NewProblem(lp.Minimize)
	xs := make([]lp.Var, in.G.NumEdges())
	for e := range xs {
		xs[e] = p.AddBinaryVariable("x", 1)
	}
	target := 0.95 * in.TotalVolume()
	ds := make([]lp.Var, len(in.Traffics))
	var cov []lp.Term
	for ti, t := range in.Traffics {
		ds[ti] = p.AddVariable("d", 0, 1, 0)
		terms := []lp.Term{{Var: ds[ti], Coef: -1}}
		for _, e := range t.Path.Edges {
			terms = append(terms, lp.Term{Var: xs[e], Coef: 1})
		}
		p.AddConstraint(lp.GE, 0, terms...)
		cov = append(cov, lp.Term{Var: ds[ti], Coef: t.Volume})
	}
	p.AddConstraint(lp.GE, target, cov...)
	p.SetOptions(opts)
	return p
}

// BenchmarkAblationTree is the root-strengthening before/after: the
// Figure 7 cover MIP solved on the plain tree, with presolve alone,
// and with the full pipeline (presolve + cover/clique cuts +
// reduced-cost fixing + pseudo-cost branching). Besides wall time it
// reports explored nodes per solve, the tree-size trajectory the
// pipeline exists to shrink. The beacon variant runs the same ablation
// on a §6-style vertex-cover ILP (triangulated probe conflicts), where
// root clique cuts close most of the integrality gap outright.
func BenchmarkAblationTree(b *testing.B) {
	variants := []struct {
		name string
		opts mip.Options
	}{
		{"PlainTree", mip.Options{Tree: mip.AlgoPlainTree}},
		{"Presolve", mip.Options{NoCuts: true, NoFixing: true, NoStrongBranch: true, Branching: mip.MostFractional}},
		{"Full", mip.Options{}},
	}
	in := fig7Instance(3)
	for _, v := range variants {
		b.Run("Fig7MIP/"+v.name, func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				s, err := fig7CoverMIP(in, v.opts).Solve()
				if err != nil {
					b.Fatal(err)
				}
				nodes += s.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
	for _, v := range variants {
		b.Run("BeaconILP/"+v.name, func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				s, err := beaconStyleILP(v.opts).Solve()
				if err != nil {
					b.Fatal(err)
				}
				nodes += s.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// beaconStyleILP builds a §6-shaped vertex-cover ILP: probes between
// node pairs of a triangulated random graph, each needing a beacon at
// one extremity. The odd structure leaves the LP relaxation at 1/2
// everywhere, so the plain tree branches heavily while clique cuts
// close the gap at the root.
func beaconStyleILP(opts mip.Options) *mip.Problem {
	rng := rand.New(rand.NewSource(41))
	p := mip.NewProblem(lp.Minimize)
	n := 30
	ys := make([]lp.Var, n)
	for i := range ys {
		ys[i] = p.AddBinaryVariable("y", 1)
	}
	// Triangles over random node triples: pairwise probe constraints.
	for t := 0; t < 40; t++ {
		a, bb, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if a == bb || bb == c || a == c {
			continue
		}
		p.AddConstraint(lp.GE, 1, lp.Term{Var: ys[a], Coef: 1}, lp.Term{Var: ys[bb], Coef: 1})
		p.AddConstraint(lp.GE, 1, lp.Term{Var: ys[bb], Coef: 1}, lp.Term{Var: ys[c], Coef: 1})
		p.AddConstraint(lp.GE, 1, lp.Term{Var: ys[a], Coef: 1}, lp.Term{Var: ys[c], Coef: 1})
	}
	p.SetOptions(opts)
	return p
}

// fig8Instance builds one Figure 8 (15-router POP) instance, the
// cover-search ablation's subject: its k = 95% point is a hard one for
// the branch-and-bound (structural integrality gap; see EXPERIMENTS.md).
func fig8Instance(seed int64) *Instance {
	cfg := topology.Paper15
	cfg.Seed = seed
	pop := topology.Generate(cfg)
	in, err := traffic.Route(pop, traffic.Demands(pop, traffic.Config{Seed: seed}))
	if err != nil {
		panic(err)
	}
	return in
}

// BenchmarkAblationCoverTree gates each layer of the specialized cover
// branch-and-bound on the Figure 8 hard point: the plain tree, then
// kernelization presolve, the Lagrangian/LP dual bounds, the in-search
// dominance reductions, and finally the deterministic parallel subtree
// phase, cumulatively. Every variant runs under the same node budget,
// so besides wall time the devices/op metric shows incumbent quality
// per node spent — the dimension the reductions exist to improve — and
// nodes/op shows how much of the budget each variant actually needed.
func BenchmarkAblationCoverTree(b *testing.B) {
	variants := []struct {
		name string
		opts cover.ExactOptions
	}{
		{"PlainTree", cover.ExactOptions{NoPresolve: true, NoDualBound: true, NoDominance: true, Workers: 1}},
		{"Presolve", cover.ExactOptions{NoDualBound: true, NoDominance: true, Workers: 1}},
		{"PresolveDual", cover.ExactOptions{NoDominance: true, Workers: 1}},
		{"FullSerial", cover.ExactOptions{Workers: 1}},
		{"FullParallel", cover.ExactOptions{Workers: runtime.GOMAXPROCS(0)}},
	}
	in := fig8Instance(0)
	const k = 0.95
	for _, v := range variants {
		opts := v.opts
		opts.MaxNodes = 20_000
		b.Run(v.name, func(b *testing.B) {
			nodes, devices := 0, 0
			for i := 0; i < b.N; i++ {
				pl := passive.ExactCover(context.Background(), in, k, opts)
				if pl.Fraction < k-1e-9 {
					b.Fatalf("%s returned an infeasible cover: %g < %g", v.name, pl.Fraction, k)
				}
				nodes += pl.Stats.Nodes
				devices += pl.Devices()
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(devices)/float64(b.N), "devices/op")
		})
	}
}

// BenchmarkAblationBranching compares the two branch-and-bound
// branching rules on the Figure 7 MIP.
func BenchmarkAblationBranching(b *testing.B) {
	for _, rule := range []struct {
		name string
		r    mip.BranchRule
	}{{"MostFractional", mip.MostFractional}, {"FirstFractional", mip.FirstFractional}} {
		b.Run(rule.name, func(b *testing.B) {
			in := fig7Instance(3)
			for i := 0; i < b.N; i++ {
				if _, err := fig7CoverMIP(in, mip.Options{Branching: rule.r}).Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPricing compares Dantzig and Devex pricing of the
// sparse revised simplex on the Figure 7 MIP (DESIGN.md §6).
func BenchmarkAblationPricing(b *testing.B) {
	for _, pr := range []struct {
		name string
		p    lp.Pricing
	}{{"Devex", lp.PricingDevex}, {"Dantzig", lp.PricingDantzig}} {
		b.Run(pr.name, func(b *testing.B) {
			in := fig7Instance(3)
			for i := 0; i < b.N; i++ {
				if _, err := fig7CoverMIP(in, mip.Options{Pricing: pr.p}).Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSimplex compares the sparse revised simplex (with
// node warm starts) against the retained dense tableau oracle on the
// Figure 7 MIP — the tentpole's before/after on one instance.
func BenchmarkAblationSimplex(b *testing.B) {
	for _, algo := range []struct {
		name string
		a    lp.Algorithm
	}{{"RevisedSparse", lp.AlgoRevisedSparse}, {"DenseTableau", lp.AlgoDenseTableau}} {
		b.Run(algo.name, func(b *testing.B) {
			in := fig7Instance(3)
			for i := 0; i < b.N; i++ {
				if _, err := fig7CoverMIP(in, mip.Options{Algorithm: algo.a}).Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGreedy compares the paper's load-order greedy with
// the marginal-gain greedy across the Figure 7 sweep.
func BenchmarkAblationGreedy(b *testing.B) {
	in := fig7Instance(4)
	b.Run("LoadOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range experiments.KSweep {
				passive.GreedyLoad(in, k)
			}
		}
	})
	b.Run("MarginalGain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range experiments.KSweep {
				passive.GreedyGain(in, k)
			}
		}
	})
}

// BenchmarkAblationFlowHeuristic compares the MECF min-cost-flow
// rounding against the direct greedy and reports solution quality
// through the exact optimum.
func BenchmarkAblationFlowHeuristic(b *testing.B) {
	in := fig7Instance(5)
	b.Run("FlowHeuristic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			passive.FlowHeuristic(in, 0.95)
		}
	})
	b.Run("GreedyGain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			passive.GreedyGain(in, 0.95)
		}
	})
	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			passive.ExactCover(context.Background(), in, 0.95, cover.ExactOptions{})
		}
	})
}

// BenchmarkAblationEngine is the tentpole's before/after: the Figure 9
// beacon sweep (benchSeeds seeds × 8 sweep points, three solvers per
// cell) run serially, fanned out on the parallel engine, and fanned out
// on a warm memoizing cache (steady state: every cell served from the
// cache). The merged series is byte-identical in all three variants;
// only the clock changes.
func BenchmarkAblationEngine(b *testing.B) {
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sanityBeacons(b, experiments.Fig9(context.Background(), engine.Serial(), benchSeeds), 15)
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Fresh per-iteration cache, like Serial: the variants differ
			// only in worker count.
			eng := figureRunner()
			sanityBeacons(b, experiments.Fig9(context.Background(), eng, benchSeeds), 15)
		}
	})
	b.Run("ParallelWarmCache", func(b *testing.B) {
		eng := figureRunner()
		sanityBeacons(b, experiments.Fig9(context.Background(), eng, benchSeeds), 15) // warm-up, not timed
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sanityBeacons(b, experiments.Fig9(context.Background(), eng, benchSeeds), 15)
		}
	})
}

// BenchmarkAblationSamplers measures the §5.2 sampling techniques over
// the same mice/elephant trace.
func BenchmarkAblationSamplers(b *testing.B) {
	trace, _, err := simulate.GenerateTrace(simulate.TraceConfig{
		Mice: 2000, Elephants: 20, MicePackets: 4, ElephantPackets: 3000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	mk := map[string]func() sampling.Sampler{
		"Regular":       func() sampling.Sampler { return sampling.NewRegular(100) },
		"Probabilistic": func() sampling.Sampler { return sampling.NewProbabilistic(100, 1) },
		"Geometric":     func() sampling.Sampler { return sampling.NewGeometric(100, 1) },
		"TimeBased":     func() sampling.Sampler { return sampling.NewTimeBased(0.01) },
	}
	for _, name := range []string{"Regular", "Probabilistic", "Geometric", "TimeBased"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := mk[name]()
				st := sampling.CollectTrace(s, trace)
				if st.Total == 0 {
					b.Fatal("sampler captured nothing")
				}
			}
		})
	}
}

// BenchmarkReplayValidation measures the packet-level validation of a
// PPME solution (promised vs achieved coverage).
func BenchmarkReplayValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs, err := experiments.Replay(context.Background(), figureRunner(), benchSeeds, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if o.Achieved < o.Promised-0.05 {
				b.Fatalf("seed %d: replay %g far below promise %g", o.Seed, o.Achieved, o.Promised)
			}
		}
	}
}

// BenchmarkMIPSolver measures raw branch-and-bound throughput on random
// set-cover MIPs (the paper's solver substrate).
func BenchmarkMIPSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		p := mip.NewProblem(lp.Minimize)
		vars := make([]lp.Var, 30)
		for j := range vars {
			vars[j] = p.AddBinaryVariable("x", 1+rng.Float64())
		}
		for r := 0; r < 40; r++ {
			var terms []lp.Term
			for j := range vars {
				if rng.Intn(4) == 0 {
					terms = append(terms, lp.Term{Var: vars[j], Coef: 1})
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(lp.GE, 1, terms...)
		}
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargePOP150 exercises the paper's §7 outlook: the beacon
// pipeline on a 150-router POP.
func BenchmarkLargePOP150(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sanityBeacons(b, experiments.Large150(context.Background(), figureRunner(), 1), 150)
	}
}

// BenchmarkAblationPPMEStar compares the LP-based PPME* re-optimization
// with the §5.4 min-cost-flow formulation (repaired heuristic).
func BenchmarkAblationPPMEStar(b *testing.B) {
	cfg := topology.Config{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: 9}
	pop := topology.Generate(cfg)
	mi, err := traffic.RouteMulti(pop, traffic.Demands(pop, traffic.Config{Seed: 9}), 2)
	if err != nil {
		b.Fatal(err)
	}
	installed := make([]EdgeID, mi.G.NumEdges())
	for e := range installed {
		installed[e] = EdgeID(e)
	}
	b.Run("LP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.SolveRates(context.Background(), mi, installed, sampling.Config{K: 0.9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinCostFlow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.SolveRatesFlow(mi, installed, sampling.Config{K: 0.9}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRounding adds the §4.3 randomized-rounding heuristic
// to the PPM(k) algorithm comparison.
func BenchmarkAblationRounding(b *testing.B) {
	in := fig7Instance(6)
	for i := 0; i < b.N; i++ {
		pl, err := passive.RandomizedRounding(context.Background(), in, 0.95, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if pl.Fraction < 0.95-1e-9 {
			b.Fatal("rounding infeasible")
		}
	}
}

// churnResolveChain replays the session benchmark's churn family
// workload: a 20-endpoint churn scenario whose demand matrix is
// re-weighted each step (volumes drawn from [0.8, 1.25], rows kept) —
// the DeltaRescale mutation class under which a Session ships the
// saved root LP basis.
func churnResolveChain(tb testing.TB, steps int) []*Instance {
	tb.Helper()
	s, err := GenerateScenario("churn", 20, 4)
	if err != nil {
		tb.Fatal(err)
	}
	dem := s.Demands
	in, err := RouteSingle(s.POP, traffic.Aggregate(dem))
	if err != nil {
		tb.Fatal(err)
	}
	chain := []*Instance{in}
	for step := 1; step <= steps; step++ {
		mutated, _, err := traffic.ChurnWithDelta(s.POP, dem, traffic.ChurnConfig{
			Seed: s.Seed + int64(step), Drop: 1e-12, Add: 1e-12,
			RescaleLow: 0.8, RescaleHigh: 1.25,
		})
		if err != nil {
			tb.Fatal(err)
		}
		next, err := RouteSingle(s.POP, traffic.Aggregate(mutated))
		if err != nil {
			tb.Fatal(err)
		}
		chain = append(chain, next)
		dem = mutated
	}
	return chain
}

// BenchmarkChurnResolve is the session re-optimization claim (DESIGN.md
// §10): re-solving a churn-mutated instance warm must be ≥10× faster
// than cold on the churn family, with identical answers. Two variants
// solve steps 1..6 of the replay chain (step 0 is cold for both and
// excluded):
//
//	cold        no artifacts — the pre-session baseline
//	warm_basis  the previous step's saved root LP basis seeds the
//	            phase-2 root LP; the warm dual-simplex re-solve
//	            re-derives the reduced-cost set bans, the cover solver's
//	            cutting-plane analog
//
// nodes/op, pivots/op and warmstarts/op expose where the speedup comes
// from: the warm basis collapses the root LP re-solve (pivots), which
// dominates the cold wall clock on this instance.
func BenchmarkChurnResolve(b *testing.B) {
	ctx := context.Background()
	const k, steps = 0.95, 6
	chain := churnResolveChain(b, steps)
	// Per-step cold reference solves, outside the timer: answers to
	// check against and the bases the warm variant consumes.
	bases := make([]*lp.Basis, len(chain))
	ref := make([]passive.Placement, len(chain))
	for i, in := range chain {
		capt := &cover.Capture{}
		pl := passive.ExactCover(ctx, in, k, cover.ExactOptions{Capture: capt})
		if !pl.Exact {
			b.Fatalf("reference solve %d did not close", i)
		}
		ref[i] = pl
		bases[i] = capt.Basis
	}
	run := func(b *testing.B, warmOf func(step int) *cover.Warm) {
		var nodes, pivots, warm int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for step := 1; step < len(chain); step++ {
				pl := passive.ExactCover(ctx, chain[step], k, cover.ExactOptions{Warm: warmOf(step)})
				nodes += pl.Stats.Nodes
				pivots += pl.Stats.Pivots
				warm += pl.Stats.WarmStarts
				if !pl.Exact || len(pl.Edges) != len(ref[step].Edges) {
					b.Fatalf("step %d: warm answer diverged (exact=%v devices=%d want %d)",
						step, pl.Exact, len(pl.Edges), len(ref[step].Edges))
				}
			}
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		b.ReportMetric(float64(warm)/float64(b.N), "warmstarts/op")
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func(int) *cover.Warm { return nil })
	})
	b.Run("warm_basis", func(b *testing.B) {
		run(b, func(step int) *cover.Warm { return &cover.Warm{Basis: bases[step-1]} })
	})
}
