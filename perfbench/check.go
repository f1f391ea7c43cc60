package main

// Answer checks. Each re-derives what a placement must satisfy from the
// problem instance alone, with code that shares nothing with the
// solvers: a wrong answer fails here however the solver reached it.

import (
	"fmt"
	"math"

	"repro"
)

// tol is the relative slack allowed on coverage floors, well above the
// solvers' floating-point noise and far below one traffic's share.
const tol = 1e-6

// checkTaps verifies that taps on edges monitor at least a k share of
// the instance's volume, a traffic being monitored when its path
// crosses a tapped link.
func checkTaps(in *repro.Instance, edges []repro.EdgeID, k float64) error {
	tapped := make([]bool, in.G.NumEdges())
	for _, e := range edges {
		if int(e) < 0 || int(e) >= len(tapped) {
			return fmt.Errorf("tap on unknown link %d", e)
		}
		tapped[e] = true
	}
	covered, total := 0.0, 0.0
	for _, t := range in.Traffics {
		total += t.Volume
		for _, e := range t.Path.Edges {
			if tapped[e] {
				covered += t.Volume
				break
			}
		}
	}
	if covered < (k-tol)*total {
		return fmt.Errorf("taps monitor %.6f of the volume, want ≥ %g", covered/total, k)
	}
	return nil
}

// checkProbes verifies that every probe is a walk along the graph's
// links between its two extremities and that the probes together cross
// every link.
func checkProbes(ps repro.ProbeSet) error {
	crossed := make([]bool, ps.G.NumEdges())
	for i, p := range ps.Probes {
		nodes, edges := p.Path.Nodes, p.Path.Edges
		if len(edges) == 0 || len(nodes) != len(edges)+1 {
			return fmt.Errorf("probe %d: malformed path", i)
		}
		if nodes[0] != p.U || nodes[len(nodes)-1] != p.V {
			return fmt.Errorf("probe %d: path runs %d→%d, want %d→%d", i, nodes[0], nodes[len(nodes)-1], p.U, p.V)
		}
		for j, e := range edges {
			if int(e) < 0 || int(e) >= len(crossed) {
				return fmt.Errorf("probe %d: unknown link %d", i, e)
			}
			l := ps.G.Edge(e)
			a, b := nodes[j], nodes[j+1]
			if !(l.U == a && l.V == b) && !(l.U == b && l.V == a) {
				return fmt.Errorf("probe %d: link %d does not join %d and %d", i, e, a, b)
			}
			crossed[e] = true
		}
	}
	for e, ok := range crossed {
		if !ok {
			return fmt.Errorf("no probe crosses link %d", e)
		}
	}
	return nil
}

// checkBeacons verifies that every probe has an extremity among the
// chosen beacons.
func checkBeacons(ps repro.ProbeSet, beacons []repro.NodeID) error {
	chosen := make(map[repro.NodeID]bool, len(beacons))
	for _, b := range beacons {
		chosen[b] = true
	}
	for i, p := range ps.Probes {
		if !chosen[p.U] && !chosen[p.V] {
			return fmt.Errorf("probe %d (%d→%d) has no beacon at either end", i, p.U, p.V)
		}
	}
	return nil
}

// checkSampling verifies that every sampling rate lies in [0,1] and
// that the promised coverage Σ_p min(1, Σ_{e∈p} r_e)·v_p / V reaches k.
func checkSampling(mi *repro.MultiInstance, rates map[repro.EdgeID]float64, k float64) error {
	for e, r := range rates {
		if math.IsNaN(r) || r < -tol || r > 1+tol {
			return fmt.Errorf("rate %g on link %d outside [0,1]", r, e)
		}
	}
	covered, total := 0.0, 0.0
	for _, t := range mi.Traffics {
		for _, route := range t.Routes {
			share := 0.0
			for _, e := range route.Path.Edges {
				share += rates[e]
			}
			covered += math.Min(share, 1) * route.Volume
			total += route.Volume
		}
	}
	if covered < (k-tol)*total {
		return fmt.Errorf("promised coverage %.6f, want ≥ %g", covered/total, k)
	}
	return nil
}

// checkNoWorse verifies that an exact solver placed no more devices
// than a heuristic on the same input.
func checkNoWorse(exact, heuristic int, exactName, heuristicName string) error {
	if exact > heuristic {
		return fmt.Errorf("%s placed %d devices, more than %s's %d", exactName, exact, heuristicName, heuristic)
	}
	return nil
}

// answerOf is a result's placement in a canonical text form, without
// its timings.
func answerOf(r *repro.Result) string {
	switch {
	case r.Taps != nil:
		return fmt.Sprint(r.Solver, r.Taps.Edges)
	case r.Beacons != nil:
		return fmt.Sprint(r.Solver, r.Beacons.Beacons, r.Beacons.Sender)
	case r.Sampling != nil:
		return fmt.Sprint(r.Solver, r.Sampling.Edges, r.Sampling.Rates)
	}
	return r.Solver
}
