package passive

import (
	"math"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
)

// MECF is the Minimum Edge Cost Flow auxiliary graph of §4.3 (Theorem
// 2): a source S, one vertex w_e per edge of the POP, one vertex w_t per
// traffic, and a sink T. Arcs S→w_e (cost 1, unbounded), w_e→w_t for
// every edge-path adjacency (cost 0, unbounded) and w_t→T (cost 0,
// capacity v_t). Routing k·V units of flow from S to T with the binary
// arc-cost objective solves PPM(k).
type MECF struct {
	Net *flow.Network
	// S and T are the source and sink node indices in Net.
	S, T int
	// EdgeArc[e] is the S→w_e arc of POP edge e; its flow being positive
	// means a measurement point on e.
	EdgeArc []flow.Arc
	// TrafficArc[t] is the w_t→T arc of traffic t; its flow is the
	// volume of t that is monitored.
	TrafficArc []flow.Arc

	in *core.Instance
}

// BuildMECF constructs the auxiliary graph with the given cost on the
// S→w_e arcs. Theorem 2's exact model uses cost 1 with a *binary*
// objective, which no polynomial flow algorithm optimizes; the linear
// relaxation of §4.3 ("Heuristics") instead charges each unit of flow
// through w_e the inverse of e's load, so that a plain min-cost flow
// reproduces the greedy behaviour. costS selects the per-unit cost of
// arc S→w_e given the edge and its load.
func BuildMECF(in *core.Instance, costS func(e graph.Edge, load float64) float64) *MECF {
	nEdges := in.G.NumEdges()
	nTraffics := len(in.Traffics)
	// Node layout: 0 = S, 1 = T, 2..2+nEdges-1 = w_e, then w_t.
	net := flow.NewNetwork(2 + nEdges + nTraffics)
	m := &MECF{
		Net:        net,
		S:          0,
		T:          1,
		EdgeArc:    make([]flow.Arc, nEdges),
		TrafficArc: make([]flow.Arc, nTraffics),
		in:         in,
	}
	loads := in.EdgeLoads()
	for e := 0; e < nEdges; e++ {
		c := costS(in.G.Edge(graph.EdgeID(e)), loads[e])
		m.EdgeArc[e] = net.AddArc(m.S, m.edgeNode(e), math.Inf(1), c)
	}
	for ti, t := range in.Traffics {
		m.TrafficArc[ti] = net.AddArc(m.trafficNode(ti), m.T, t.Volume, 0)
		for _, e := range t.Path.Edges {
			net.AddArc(m.edgeNode(int(e)), m.trafficNode(ti), math.Inf(1), 0)
		}
	}
	return m
}

func (m *MECF) edgeNode(e int) int    { return 2 + e }
func (m *MECF) trafficNode(t int) int { return 2 + m.in.G.NumEdges() + t }

// InverseLoadCost is the §4.3 heuristic cost: 1/load on loaded links
// (unloaded links get an effectively prohibitive cost).
func InverseLoadCost(_ graph.Edge, load float64) float64 {
	if load <= 0 {
		return 1e9
	}
	return 1 / load
}

// FlowHeuristic solves the linear-cost relaxation of MECF as a min-cost
// flow and rounds it: every S→w_e arc carrying flow becomes a tap
// device, then a reverse-delete pass drops devices whose removal keeps
// the coverage target (redundancy can appear because the relaxation
// splits traffics across edges). It formalizes the greedy family as
// flows, per §4.3.
func FlowHeuristic(in *core.Instance, k float64) Placement {
	checkK(k)
	m := BuildMECF(in, InverseLoadCost)
	target := k * in.TotalVolume()
	res := m.Net.MinCostFlow(m.S, m.T, target)
	if !res.Full {
		// Cannot happen on valid instances: every traffic can reach T
		// through any of its edges.
		panic("passive: MECF flow could not route the coverage target")
	}
	var edges []graph.EdgeID
	for e, a := range m.EdgeArc {
		if m.Net.Flow(a) > 1e-9 {
			edges = append(edges, graph.EdgeID(e))
		}
	}
	edges = pruneRedundant(in, edges, target)
	return finish(in, edges, false, "flow-heuristic")
}

// pruneRedundant removes edges whose deletion keeps coverage ≥ target,
// trying lightest-coverage edges first.
func pruneRedundant(in *core.Instance, edges []graph.EdgeID, target float64) []graph.EdgeID {
	loads := in.EdgeLoads()
	order := append([]graph.EdgeID(nil), edges...)
	// Try removing lightly loaded links first.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && loads[order[j]] < loads[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	keep := make(map[graph.EdgeID]bool, len(edges))
	for _, e := range edges {
		keep[e] = true
	}
	for _, e := range order {
		keep[e] = false
		vol, _ := Coverage(in, keysOf(keep))
		if vol < target-1e-9 {
			keep[e] = true
		}
	}
	return keysOf(keep)
}

func keysOf(m map[graph.EdgeID]bool) []graph.EdgeID {
	var out []graph.EdgeID
	for e, ok := range m {
		if ok {
			out = append(out, e)
		}
	}
	return out
}
