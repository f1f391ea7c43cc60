// Package passive solves the paper's Partial Passive Monitoring problem
// PPM(k) (§4): select a minimum set of links to equip with tap devices
// so that the traffics crossing the selected links carry at least a
// fraction k of the total bandwidth.
//
// The package provides every solution strategy the paper discusses:
//
//   - GreedyLoad — the "natural" greedy of §4.3 that picks the most
//     loaded link first (the baseline plotted in Figures 7 and 8);
//   - GreedyGain — the marginal-gain greedy, i.e. the classical partial
//     set-cover greedy with the Slavík guarantee;
//   - FlowHeuristic — the linear-cost relaxation of the Minimum Edge
//     Cost Flow model, computed as a min-cost flow (§4.3 "Heuristics");
//   - SolveILP — the exact Mixed Integer Programming formulations LP 1
//     (arc-path) and LP 2 (compact), including the incremental and
//     device-budget variants (§4.3 "MIP formulation");
//   - ExactCover — an exact combinatorial branch-and-bound over the
//     set-cover view (Theorem 1), used where the MIP would be slow.
package passive

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
)

// Placement is the outcome of a PPM(k) solver.
type Placement struct {
	// Edges is the set of links selected for tap devices, sorted.
	Edges []graph.EdgeID
	// Covered is the total volume of the traffics crossing a selected
	// link; Fraction is Covered divided by the instance volume.
	Covered  float64
	Fraction float64
	// Exact is true when the placement is provably optimal; a canceled
	// or node-capped exact solve reports its incumbent with Exact =
	// false.
	Exact bool
	// Method names the algorithm that produced the placement.
	Method string
	// Stats carries the solver effort counters (zero for pure
	// heuristics).
	Stats core.SolveStats
}

// Devices returns the number of tap devices in the placement (the
// paper's y-axis in Figures 7 and 8).
func (p Placement) Devices() int { return len(p.Edges) }

// Coverage returns the total volume and fraction of traffic monitored
// when tap devices sit on the given edges (a traffic is monitored when
// at least one edge of its path is tapped — no sampling in §4).
func Coverage(in *core.Instance, edges []graph.EdgeID) (volume, fraction float64) {
	tapped := make([]bool, in.G.NumEdges())
	for _, e := range edges {
		tapped[e] = true
	}
	for _, t := range in.Traffics {
		for _, e := range t.Path.Edges {
			if tapped[e] {
				volume += t.Volume
				break
			}
		}
	}
	total := in.TotalVolume()
	if total > 0 {
		fraction = volume / total
	}
	return volume, fraction
}

func checkK(k float64) {
	if k <= 0 || k > 1 {
		panic(fmt.Sprintf("passive: k = %g outside (0,1]", k))
	}
}

func finish(in *core.Instance, edges []graph.EdgeID, exact bool, method string) Placement {
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	vol, frac := Coverage(in, edges)
	return Placement{Edges: edges, Covered: vol, Fraction: frac, Exact: exact, Method: method}
}

// GreedyLoad implements the baseline greedy of §4.3: links are chosen in
// decreasing *static* load order until the coverage target is met. This
// is the algorithm the paper's Figure 3 counter-example defeats, and the
// "Greedy algorithm" curve of Figures 7 and 8.
func GreedyLoad(in *core.Instance, k float64) Placement {
	checkK(k)
	loads := in.EdgeLoads()
	order := make([]graph.EdgeID, in.G.NumEdges())
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	target := k * in.TotalVolume()
	onEdge := in.TrafficsOnEdge()
	monitored := make([]bool, len(in.Traffics))
	covered := 0.0
	var chosen []graph.EdgeID
	for _, e := range order {
		if covered >= target-1e-12 {
			break
		}
		gain := 0.0
		for _, ti := range onEdge[e] {
			if !monitored[ti] {
				gain += in.Traffics[ti].Volume
			}
		}
		if gain <= 0 {
			continue // nothing new on this link
		}
		chosen = append(chosen, e)
		for _, ti := range onEdge[e] {
			monitored[ti] = true
		}
		covered += gain
	}
	return finish(in, chosen, false, "greedy-load")
}

// GreedyGain implements the marginal-gain greedy: at every step it picks
// the link monitoring the largest volume of yet-unmonitored traffic
// ("always choose the edge which permits to monitor the larger volume of
// traffic not monitored yet", §4.3). It is the greedy of the Minimum
// Partial Cover analysis [19, 20].
func GreedyGain(in *core.Instance, k float64) Placement {
	checkK(k)
	ci := toCover(in)
	res := cover.GreedyPartial(ci, k*in.TotalVolume())
	if !res.Feasible {
		// Cannot happen on valid instances: every traffic crosses at
		// least one edge, so full coverage is always achievable.
		panic("passive: greedy found valid instance infeasible")
	}
	return finish(in, edgeIDs(res.Chosen), false, "greedy-gain")
}

// ExactCover solves PPM(k) exactly through the set-cover equivalence of
// Theorem 1 using combinatorial branch and bound. On the paper's
// instance sizes it returns the same optima as the MIP while scaling to
// the 1980-traffic instance of Figure 8. Cancelling ctx mid-search
// returns the best incumbent found so far with Exact = false.
func ExactCover(ctx context.Context, in *core.Instance, k float64, opts cover.ExactOptions) Placement {
	checkK(k)
	ci := toCover(in)
	res := cover.Exact(ctx, ci, k*in.TotalVolume(), opts)
	if !res.Feasible {
		panic("passive: exact search found valid instance infeasible")
	}
	pl := finish(in, edgeIDs(res.Chosen), res.Exact, "exact-cover")
	pl.Stats = res.SolveStats
	return pl
}

// toCover converts a PPM instance into the set-cover view of Theorem 1:
// elements are traffics (weighted by volume), sets are links.
func toCover(in *core.Instance) cover.Instance {
	ci := cover.Instance{
		NumElements: len(in.Traffics),
		Weights:     make([]float64, len(in.Traffics)),
		Sets:        make([][]int, in.G.NumEdges()),
	}
	for i, t := range in.Traffics {
		ci.Weights[i] = t.Volume
	}
	onEdge := in.TrafficsOnEdge()
	for e, ts := range onEdge {
		ci.Sets[e] = ts
	}
	return ci
}

func edgeIDs(sets []int) []graph.EdgeID {
	out := make([]graph.EdgeID, len(sets))
	for i, s := range sets {
		out[i] = graph.EdgeID(s)
	}
	return out
}
