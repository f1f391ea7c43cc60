package main

import (
	"context"
	"strings"
	"testing"

	"repro"
)

// paper10 is a small routed instance for the check tests.
func paper10(t *testing.T) (*repro.POP, *repro.Instance) {
	t.Helper()
	cfg := repro.Paper10
	cfg.Seed = 3
	pop := repro.GeneratePOP(cfg)
	in, err := repro.RouteSingle(pop, repro.GenerateDemands(pop, repro.TrafficConfig{Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	return pop, in
}

func mustSolve(t *testing.T, solver string, problem repro.Problem, opts ...repro.Option) *repro.Result {
	t.Helper()
	res, err := repro.Solve(context.Background(), solver, problem, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wantErr(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: corrupted answer passed the check", what)
	}
}

func TestCheckTaps(t *testing.T) {
	_, in := paper10(t)
	res := mustSolve(t, repro.SolverTapGreedyLoad, in, repro.WithCoverage(0.9))
	edges := res.Taps.Edges
	if err := checkTaps(in, edges, 0.9); err != nil {
		t.Fatalf("correct placement rejected: %v", err)
	}
	wantErr(t, "taps dropped", checkTaps(in, edges[:len(edges)/2], 0.9))
	wantErr(t, "unknown link", checkTaps(in, append([]repro.EdgeID{repro.EdgeID(in.G.NumEdges())}, edges...), 0.9))
	wantErr(t, "floor raised", checkTaps(in, edges[:len(edges)-1], 1))
}

func TestCheckProbesAndBeacons(t *testing.T) {
	pop, _ := paper10(t)
	routers := append(append([]repro.NodeID(nil), pop.Backbone...), pop.Access...)
	ps, err := repro.ComputeProbes(pop.G, routers)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProbes(ps); err != nil {
		t.Fatalf("correct probes rejected: %v", err)
	}
	res := mustSolve(t, repro.SolverBeaconGreedy, ps)
	if err := checkBeacons(ps, res.Beacons.Beacons); err != nil {
		t.Fatalf("correct beacons rejected: %v", err)
	}

	short := ps
	short.Probes = ps.Probes[:1]
	wantErr(t, "probes dropped", checkProbes(short))

	bent := ps
	bent.Probes = append([]repro.Probe(nil), ps.Probes...)
	p := bent.Probes[0]
	p.U, p.V = p.V, p.U
	bent.Probes[0] = p
	wantErr(t, "probe reversed", checkProbes(bent))

	wantErr(t, "no beacons", checkBeacons(ps, nil))
	wantErr(t, "beacon dropped", checkBeacons(ps, res.Beacons.Beacons[1:]))
}

func TestCheckSampling(t *testing.T) {
	pop := repro.GeneratePOP(repro.POPConfig{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: 2})
	mi, err := repro.RouteMulti(pop, repro.GenerateDemands(pop, repro.TrafficConfig{Seed: 2}), 2)
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, repro.SolverSamplePPME, mi, repro.WithCoverage(0.85), repro.WithMaxNodes(ppmeMaxNodes))
	rates := res.Sampling.Rates
	if err := checkSampling(mi, rates, 0.85); err != nil {
		t.Fatalf("correct rates rejected: %v", err)
	}

	over := map[repro.EdgeID]float64{}
	low := map[repro.EdgeID]float64{}
	for e, r := range rates {
		over[e] = r
		low[e] = r / 2
	}
	for e := range over {
		over[e] = 1.5
		break
	}
	wantErr(t, "rate above 1", checkSampling(mi, over, 0.85))
	wantErr(t, "rates halved", checkSampling(mi, low, 0.85))
}

func TestCheckNoWorse(t *testing.T) {
	if err := checkNoWorse(3, 4, "exact", "greedy"); err != nil {
		t.Errorf("3 ≤ 4 rejected: %v", err)
	}
	if err := checkNoWorse(4, 4, "exact", "greedy"); err != nil {
		t.Errorf("4 ≤ 4 rejected: %v", err)
	}
	wantErr(t, "exact above greedy", checkNoWorse(5, 4, "exact", "greedy"))
}

func TestVerifyRejectsChangedRepeat(t *testing.T) {
	sched := schedule{problems: []problem{{entry: 0, seed: 5}}, ask: []int{0, 0}}
	e := catalog[0]
	sc, err := repro.GenerateScenario(e.family, e.size, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, e.solver, in, repro.WithCoverage(e.coverage))
	good, err := jsonBody(res)
	if err != nil {
		t.Fatal(err)
	}
	run := func(second []byte) (failed, wrong int) {
		r := &pdRun{
			replies:   []reply{{status: 200, body: good}, {status: 200, body: second}},
			firstSeen: []int{0},
		}
		failed, wrong, _ = r.verify(sched, nil)
		return failed, wrong
	}
	if f, w := run(good); f != 0 || w != 0 {
		t.Fatalf("identical repeat: %d failed, %d wrong", f, w)
	}
	changed := []byte(strings.Replace(string(good), `"Optimal":false`, `"Optimal":true`, 1))
	if f, w := run(changed); f != 1 || w != 1 {
		t.Errorf("changed repeat: %d failed, %d wrong, want 1 and 1", f, w)
	}

	// A first sighting whose placement misses the floor fails its check.
	res.Taps.Edges = res.Taps.Edges[:1]
	bad, err := jsonBody(res)
	if err != nil {
		t.Fatal(err)
	}
	if f, w := run(bad); f < 1 || w < 1 {
		t.Errorf("wrong first sighting: %d failed, %d wrong", f, w)
	}
}
