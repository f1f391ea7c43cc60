package main

// The library workloads: serial ops on the repro facade over a fixed
// corpus of paper instances.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/sampling"
)

// Node caps bound every exact solve by effort, never by the clock, so
// answers and counters repeat for a seed.
const (
	beaconMaxNodes = 20_000
	ppmeMaxNodes   = 20_000
	exactMaxNodes  = 100_000
)

var (
	ppmeKs = []float64{0.75, 0.85, 0.95}
	tapKs  = []float64{0.75, 0.80, 0.85, 0.90, 0.95, 1.00}
)

// libOp is one op of a library workload. name says what it solves;
// run makes the op's solver calls, with a span around each when tr is
// non-nil, adds their effort to c, and returns the check of its
// answers, which runs untimed.
type libOp struct {
	name string
	run  func(ctx context.Context, tr *tracer, id int, c counters) (checkFunc, error)
}

// checkFunc checks an op's answers and returns them in a canonical
// text form for the run's answer digest.
type checkFunc func() (answer string, err error)

// library builds a workload of serial in-process ops over a fixed
// corpus of pool instances, the paper figures' seeds 0..pool-1, so that
// every workload seed measures the same work and runs at different
// seeds differ only by measurement noise. It draws the op order from
// the workload seed and records set-up spans on tr.
type library func(seed int64, tr *tracer) ([]libOp, error)

// counters accumulates per-layer effort by metric name.
type counters map[string]float64

// addEffort books a solve's effort counters: tree-search effort goes to
// the cover layer for tap/exact and to the mip layer otherwise, and LP
// effort, with the time of the solves that pivoted, to the lp layer.
func (c counters) addEffort(layer string, st repro.Stats, wall time.Duration) {
	c[layer+".nodes"] += float64(st.Nodes)
	if layer == "cover" {
		c["cover.dominance_prunes"] += float64(st.DominancePrunes)
	} else {
		c["mip.strong_branches"] += float64(st.StrongBranches)
		c["mip.warm_starts"] += float64(st.WarmStarts)
		c["mip.cuts"] += float64(st.CutsAdded)
		c["mip.vars_fixed"] += float64(st.VarsFixed)
		c["mip.presolve_removed"] += float64(st.PresolveRemoved)
	}
	if st.Pivots > 0 {
		c["lp.pivots"] += float64(st.Pivots)
		c["lp.refactorizations"] += float64(st.Refactorizations)
		c["lp.devex_resets"] += float64(st.DevexResets)
		c["lp.busy_ms"] += ms(wall)
	}
}

// solve is repro.Solve wrapped in a span named after the layer call.
func solve(ctx context.Context, tr *tracer, id int, span, solver string, problem repro.Problem, opts ...repro.Option) (*repro.Result, error) {
	sp := tr.begin(span, id)
	res, err := repro.Solve(ctx, solver, problem, opts...)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", solver, err)
	}
	return res, nil
}

// shuffle orders a pass's ops by the workload seed.
func shuffle(seed int64, ops []libOp) {
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

func generatePOP(tr *tracer, cfg repro.POPConfig) *repro.POP {
	sp := tr.begin("topology.generate", -1)
	defer tr.end(sp)
	return repro.GeneratePOP(cfg)
}

// beacon80 is the Figure 11 sweep: per pool POP and |V_B| = 2, 4, …,
// 80, probes over the figure's candidate draw, then beacons placed
// three ways.
func beacon80(pool int) library {
	return func(seed int64, tr *tracer) ([]libOp, error) {
		var ops []libOp
		for s := int64(0); s < int64(pool); s++ {
			cfg := repro.Paper80
			cfg.Seed = s
			pop := generatePOP(tr, cfg)
			routers := append(append([]repro.NodeID(nil), pop.Backbone...), pop.Access...)
			draw := rand.New(rand.NewSource(s * 7919))
			for nb := 2; nb <= len(routers); nb += 2 {
				perm := draw.Perm(len(routers))
				cands := make([]repro.NodeID, nb)
				for i := range cands {
					cands[i] = routers[perm[i]]
				}
				ops = append(ops, beaconOp(fmt.Sprintf("beacon80 pop %d candidates %v", s, cands), pop.G, cands))
			}
		}
		shuffle(seed, ops)
		return ops, nil
	}
}

func beaconOp(name string, g *repro.Graph, cands []repro.NodeID) libOp {
	return libOp{name, func(ctx context.Context, tr *tracer, id int, c counters) (checkFunc, error) {
		sp := tr.begin("active.probes", id)
		ps, err := repro.ComputeProbes(g, cands)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		c["active.probes"] += float64(len(ps.Probes))
		th, err := solve(ctx, tr, id, "active.thiran", repro.SolverBeaconThiran, ps)
		if err != nil {
			return nil, err
		}
		gr, err := solve(ctx, tr, id, "active.greedy", repro.SolverBeaconGreedy, ps)
		if err != nil {
			return nil, err
		}
		il, err := solve(ctx, tr, id, "active.ilp", repro.SolverBeaconILP, ps, repro.WithMaxNodes(beaconMaxNodes))
		if err != nil {
			return nil, err
		}
		c.addEffort("mip", il.Stats, il.Stats.Wall)
		return func() (string, error) {
			answer := fmt.Sprint(len(ps.Probes), answerOf(th), answerOf(gr), answerOf(il))
			if err := checkProbes(ps); err != nil {
				return answer, err
			}
			for _, r := range []*repro.Result{th, gr, il} {
				if r.Beacons == nil {
					return answer, fmt.Errorf("%s returned no beacon placement", r.Solver)
				}
				if err := checkBeacons(ps, r.Beacons.Beacons); err != nil {
					return answer, fmt.Errorf("%s: %w", r.Solver, err)
				}
			}
			if err := checkNoWorse(il.Devices(), gr.Devices(), il.Solver, gr.Solver); err != nil {
				return answer, err
			}
			return answer, checkNoWorse(il.Devices(), th.Devices(), il.Solver, th.Solver)
		}, nil
	}}
}

// ppme is the §5 cost experiment: per pool instance and k, one PPME
// solve and one full-rate baseline solve, which pays install plus
// full-rate exploitation per device.
func ppme(pool int) library {
	costs := sampling.DefaultCosts()
	fullRate := repro.CostModel{
		Install: func(e graph.Edge) float64 { return costs.Install(e) + costs.Exploit(e) },
		Exploit: func(graph.Edge) float64 { return 0 },
	}
	return func(seed int64, tr *tracer) ([]libOp, error) {
		var ops []libOp
		for s := int64(0); s < int64(pool); s++ {
			pop := generatePOP(tr, repro.POPConfig{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: s})
			sp := tr.begin("traffic.route", -1)
			mi, err := repro.RouteMulti(pop, repro.GenerateDemands(pop, repro.TrafficConfig{Seed: s}), 2)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("route instance %d: %w", s, err)
			}
			for _, k := range ppmeKs {
				ops = append(ops,
					ppmeOp(fmt.Sprintf("ppme pop %d k %g", s, k), mi, k),
					fullRateOp(fmt.Sprintf("fullrate pop %d k %g", s, k), mi, k, fullRate))
			}
		}
		shuffle(seed, ops)
		return ops, nil
	}
}

func ppmeOp(name string, mi *repro.MultiInstance, k float64) libOp {
	return libOp{name, func(ctx context.Context, tr *tracer, id int, c counters) (checkFunc, error) {
		res, err := solve(ctx, tr, id, "sampling.ppme", repro.SolverSamplePPME, mi,
			repro.WithCoverage(k), repro.WithMaxNodes(ppmeMaxNodes))
		if err != nil {
			return nil, err
		}
		c.addEffort("mip", res.Stats, res.Stats.Wall)
		return func() (string, error) {
			if res.Sampling == nil {
				return "", fmt.Errorf("%s returned no sampling solution", res.Solver)
			}
			return answerOf(res), checkSampling(mi, res.Sampling.Rates, k)
		}, nil
	}}
}

func fullRateOp(name string, mi *repro.MultiInstance, k float64, costs repro.CostModel) libOp {
	return libOp{name, func(ctx context.Context, tr *tracer, id int, c counters) (checkFunc, error) {
		sp := tr.begin("sampling.fullrate", id)
		start := time.Now()
		sol, err := repro.PlaceSamplers(ctx, mi, repro.SamplingConfig{K: k, Costs: costs, MaxNodes: ppmeMaxNodes})
		wall := time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("full-rate baseline: %w", err)
		}
		st := sol.Stats
		c.addEffort("mip", repro.Stats{
			Nodes: st.Nodes, Pivots: st.Pivots, Refactorizations: st.Refactorizations,
			DevexResets: st.DevexResets, WarmStarts: st.WarmStarts, CutsAdded: st.CutsAdded,
			VarsFixed: st.VarsFixed, PresolveRemoved: st.PresolveRemoved, StrongBranches: st.StrongBranches,
		}, wall)
		return func() (string, error) {
			return fmt.Sprint("fullrate", sol.Edges, sol.Rates), checkSampling(mi, sol.Rates, k)
		}, nil
	}}
}

// tap15 is the Figure 8 sweep: per pool instance and k, one op runs the
// load-order greedy and then the capped exact cover search, so the exact
// answer can be held to the greedy one.
func tap15(pool int) library {
	return func(seed int64, tr *tracer) ([]libOp, error) {
		var ops []libOp
		for s := int64(0); s < int64(pool); s++ {
			cfg := repro.Paper15
			cfg.Seed = s
			pop := generatePOP(tr, cfg)
			sp := tr.begin("traffic.route", -1)
			in, err := repro.RouteSingle(pop, repro.GenerateDemands(pop, repro.TrafficConfig{Seed: s}))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("route instance %d: %w", s, err)
			}
			for _, k := range tapKs {
				ops = append(ops, tapOp(fmt.Sprintf("tap15 pop %d k %g", s, k), in, k))
			}
		}
		shuffle(seed, ops)
		return ops, nil
	}
}

func tapOp(name string, in *repro.Instance, k float64) libOp {
	return libOp{name, func(ctx context.Context, tr *tracer, id int, c counters) (checkFunc, error) {
		gr, err := solve(ctx, tr, id, "passive.greedy_load", repro.SolverTapGreedyLoad, in, repro.WithCoverage(k))
		if err != nil {
			return nil, err
		}
		ex, err := solve(ctx, tr, id, "cover.exact", repro.SolverTapExact, in,
			repro.WithCoverage(k), repro.WithMaxNodes(exactMaxNodes))
		if err != nil {
			return nil, err
		}
		c.addEffort("cover", ex.Stats, ex.Stats.Wall)
		c["cover.solves"]++
		if !ex.Optimal {
			c["cover.capped"]++
		}
		return func() (string, error) {
			answer := fmt.Sprint(answerOf(gr), answerOf(ex))
			if err := checkTapResult(in, gr, k); err != nil {
				return answer, err
			}
			if err := checkTapResult(in, ex, k); err != nil {
				return answer, err
			}
			return answer, checkNoWorse(ex.Devices(), gr.Devices(), ex.Solver, gr.Solver)
		}, nil
	}}
}

func checkTapResult(in *repro.Instance, res *repro.Result, k float64) error {
	if res.Taps == nil {
		return fmt.Errorf("%s returned no tap placement", res.Solver)
	}
	if err := checkTaps(in, res.Taps.Edges, k); err != nil {
		return fmt.Errorf("%s: %w", res.Solver, err)
	}
	return nil
}

// run measures the workload. Untraced, it sets up setupReps times and
// then runs whole passes of the op list until cfg.seconds have passed
// and the p95 op latency has its tail; ops_per_s is taken from the
// median pass, so a stall of the machine during one pass does not move
// it. Traced, it sets up once with
// spans on and runs whole passes for cfg.seconds, every op twice in a
// row, once untraced and once traced, alternating which goes first; the
// per-layer metrics come from the traced runs, and their extra time
// over the untraced ones is the tracing overhead.
func (build library) run(ctx context.Context, cfg config) (*outcome, error) {
	if cfg.trace {
		return build.runTraced(ctx, cfg)
	}
	setup := make([]float64, setupReps)
	var ops []libOp
	for i := range setup {
		start := time.Now()
		var err error
		if ops, err = build(cfg.seed, nil); err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
	}
	p := newPhase(len(ops))
	runtime.GC()
	start := time.Now()
	var passes []float64 // wall time of each pass, s
	for i, passStart := 0, start; i%len(ops) != 0 || i < samplesFor(0.95) || time.Since(start) < cfg.seconds; i++ {
		p.runOp(ctx, ops[i%len(ops)], i, nil)
		if (i+1)%len(ops) == 0 {
			passes = append(passes, time.Since(passStart).Seconds())
			passStart = time.Now()
		}
	}
	return &outcome{
		attempted: p.attempted, failed: p.failed, wrong: p.wrong, digest: p.digest(),
		metrics: map[string]float64{
			"setup_s":        median(setup),
			"ops_per_s":      float64(len(ops)) / median(passes),
			"op_ms_p50":      percentile(p.lat, 0.50),
			"op_ms_p90":      percentile(p.lat, 0.90),
			"latency_ms_p50": percentile(p.lat, 0.50),
			"latency_ms_p95": percentile(p.lat, 0.95),
		},
		samples: map[string]int{"ops": len(p.lat), "passes": len(p.lat) / len(ops), "setups": setupReps},
	}, nil
}

func (build library) runTraced(ctx context.Context, cfg config) (*outcome, error) {
	tr := newTracer()
	ops, err := build(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	plain, traced := newPhase(len(ops)), newPhase(len(ops))
	runtime.GC()
	start := time.Now()
	for i := 0; i == 0 || i%len(ops) != 0 || time.Since(start) < cfg.seconds; i++ {
		first, second, firstTr, secondTr := plain, traced, (*tracer)(nil), tr
		if i%2 == 1 {
			first, second, firstTr, secondTr = traced, plain, tr, nil
		}
		first.runOp(ctx, ops[i%len(ops)], i, firstTr)
		second.runOp(ctx, ops[i%len(ops)], i, secondTr)
	}
	passes := float64(len(traced.lat) / len(ops))

	m := layerMetrics(tr.spans, traced.c, passes, plain.lat, traced.lat)
	m["go.alloc_mb_per_op"] = plain.allocMB / float64(len(plain.lat))
	return &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		wrong:     plain.wrong + traced.wrong,
		digest:    traced.digest(),
		metrics:   m,
		samples:   map[string]int{"ops": len(plain.lat) + len(traced.lat), "passes": int(passes)},
		spans:     tr.spans,
	}, nil
}

// phase accumulates the ops of one measured stretch.
type phase struct {
	lat                      []float64 // op latency, ms
	attempted, failed, wrong int
	c                        counters
	allocMB                  float64 // heap allocated by the ops
	answers                  hash.Hash
	passLen                  int
}

func newPhase(passLen int) *phase {
	return &phase{c: counters{}, answers: sha256.New(), passLen: passLen}
}

// digest identifies the answers of the phase's first pass.
func (p *phase) digest() string { return hex.EncodeToString(p.answers.Sum(nil)) }

// allocs reads the heap bytes allocated so far without stopping the
// world.
var allocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// runOp runs and times one op, then checks its answers untimed. An op
// that errors or fails its check counts as failed.
func (p *phase) runOp(ctx context.Context, op libOp, id int, tr *tracer) {
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	sp := tr.begin("op", id)
	t := time.Now()
	check, err := op.run(ctx, tr, id, p.c)
	p.lat = append(p.lat, ms(time.Since(t)))
	tr.end(sp)
	metrics.Read(allocs)
	p.allocMB += float64(allocs[0].Value.Uint64()-before) / (1 << 20)
	p.attempted++
	if err == nil {
		cs := tr.begin("check", id)
		var answer string
		answer, err = check()
		tr.end(cs)
		if p.attempted <= p.passLen {
			fmt.Fprintf(p.answers, "%s: %s\n", op.name, answer)
		}
		if err != nil {
			p.wrong++
		}
	}
	if err != nil {
		p.failed++
		if p.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op.name, err)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
