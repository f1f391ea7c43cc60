// Package core defines the shared problem model of the paper (§4.1): a
// POP modelled as a graph G = (V, E) plus a set of traffics, each a
// weighted path (single-routed, §4) or a set of weighted routes between
// one source/destination pair (multi-routed, §5). Every solver package
// (passive, sampling, active) consumes these types.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
)

// SolveStats is the one block of effort counters, from the solver
// packages (mip, cover, passive, sampling, active) through the engine's
// batch aggregate to the facade's Result.Stats, /metrics and
// -bench-json: it reports how hard a solve was and how tight the proof
// is. Add is the only place counters are summed.
type SolveStats struct {
	// Wall is the wall-clock duration of the solve, stamped by the
	// facade (zero inside the solver packages and in aggregates).
	Wall time.Duration
	// Nodes is the number of branch-and-bound nodes explored (0 for
	// pure heuristics).
	Nodes int
	// Pivots is the total simplex iterations across all LP relaxations
	// (0 for combinatorial solvers, the cover search included).
	Pivots int
	// Refactorizations is the total basis LU refactorizations of the
	// sparse revised simplex across all LP relaxations.
	Refactorizations int
	// DevexResets is the total Devex pricing reference-framework
	// resets across all LP relaxations.
	DevexResets int
	// WarmStarts is the number of MIP branch-and-bound nodes whose LP
	// relaxation was warm-started from the parent's basis (0 for the
	// cover search, which solves no LP).
	WarmStarts int
	// CutsAdded is the number of cutting planes (lifted cover and
	// clique cuts) the MIP root separation added.
	CutsAdded int
	// VarsFixed is the number of variables permanently fixed by the
	// MIP's reduced-cost fixing (root and incumbent improvements; 0 for
	// the cover search, which solves no LP).
	VarsFixed int
	// PresolveRemoved is the number of columns and rows the MIP
	// presolve removed before the root solve.
	PresolveRemoved int
	// StrongBranches is the number of strong-branching probe LPs solved
	// to initialize pseudo-cost branching.
	StrongBranches int
	// SubtreeTasks is the number of independent subtree tasks the
	// parallel cover branch-and-bound dispatched over its worker pool
	// (0 when the search closed within the serial burn-in).
	SubtreeTasks int
	// Steals is the number of subtree tasks executed by a worker other
	// than the task's round-robin home worker — the load-balancing
	// traffic of the parallel tree search. Always 0 for serial solves.
	Steals int
	// DominancePrunes is the number of sets the cover search excluded by
	// residual-coverage dominance (in the exclude branch, any set whose
	// residual coverage is contained in the branched set's), separating
	// dominance-pruned from bound-pruned work.
	DominancePrunes int
	// Degraded counts solves answered by a fallback solver after the
	// primary errored (the facade's WithFallback ladder; 1 for a single
	// degraded Solve, summed across a batch).
	Degraded int
	// Bound is the best proven bound on the objective; it equals the
	// objective at optimality and is meaningful only when Proven or an
	// early-stopped exact search produced it.
	Bound float64
}

// Add sums o's counters into s. Wall and Bound are left alone: the
// wall times of overlapping solves and the bounds of unrelated
// objectives do not sum.
func (s *SolveStats) Add(o SolveStats) {
	s.Nodes += o.Nodes
	s.Pivots += o.Pivots
	s.Refactorizations += o.Refactorizations
	s.DevexResets += o.DevexResets
	s.WarmStarts += o.WarmStarts
	s.CutsAdded += o.CutsAdded
	s.VarsFixed += o.VarsFixed
	s.PresolveRemoved += o.PresolveRemoved
	s.StrongBranches += o.StrongBranches
	s.SubtreeTasks += o.SubtreeTasks
	s.Steals += o.Steals
	s.DominancePrunes += o.DominancePrunes
	s.Degraded += o.Degraded
}

// Traffic is a single-routed traffic: the aggregation of all IP flows
// following one path through the POP, with the bandwidth routed along it
// (the paper's (p_t, v_t) pairs).
type Traffic struct {
	ID     int
	Path   graph.Path
	Volume float64
}

// Route is one weighted path of a multi-routed traffic.
type Route struct {
	Path   graph.Path
	Volume float64
}

// MultiTraffic is a §5 traffic: a set of weighted routes between the
// same source and destination (load-balanced routing). Its total volume
// is the sum of route volumes.
type MultiTraffic struct {
	ID       int
	Src, Dst graph.NodeID
	Routes   []Route
}

// Volume returns the total bandwidth of the multi-routed traffic.
func (m MultiTraffic) Volume() float64 {
	v := 0.0
	for _, r := range m.Routes {
		v += r.Volume
	}
	return v
}

// Instance is a single-routed PPM(k) instance: the POP graph and its
// traffics.
type Instance struct {
	G        *graph.Graph
	Traffics []Traffic
}

// TotalVolume returns V = Σ v_t.
func (in *Instance) TotalVolume() float64 {
	v := 0.0
	for _, t := range in.Traffics {
		v += t.Volume
	}
	return v
}

// EdgeLoads returns, per edge, the sum of the volumes of the traffics
// crossing it (the paper's link load).
func (in *Instance) EdgeLoads() []float64 {
	loads := make([]float64, in.G.NumEdges())
	for _, t := range in.Traffics {
		for _, e := range t.Path.Edges {
			loads[e] += t.Volume
		}
	}
	return loads
}

// TrafficsOnEdge returns, per edge e, the indices (into Traffics) of the
// traffics whose path uses e — the paper's π_e sets.
func (in *Instance) TrafficsOnEdge() [][]int {
	onEdge := make([][]int, in.G.NumEdges())
	for ti, t := range in.Traffics {
		for _, e := range t.Path.Edges {
			onEdge[e] = append(onEdge[e], ti)
		}
	}
	return onEdge
}

// Validate checks that every traffic path is consistent with the graph
// and crosses at least one link, and that volumes are positive and
// finite.
func (in *Instance) Validate() error {
	if in.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	for i, t := range in.Traffics {
		if t.Volume <= 0 || math.IsNaN(t.Volume) || math.IsInf(t.Volume, 0) {
			return fmt.Errorf("core: traffic %d has bad volume %g", i, t.Volume)
		}
		if err := t.Path.Validate(in.G); err != nil {
			return fmt.Errorf("core: traffic %d: %w", i, err)
		}
		if t.Path.Len() == 0 {
			return fmt.Errorf("core: traffic %d crosses no link", i)
		}
	}
	return nil
}

// MultiInstance is a §5 instance with multi-routed traffics.
type MultiInstance struct {
	G        *graph.Graph
	Traffics []MultiTraffic
}

// TotalVolume returns the total bandwidth over all traffics and routes.
func (in *MultiInstance) TotalVolume() float64 {
	v := 0.0
	for _, t := range in.Traffics {
		v += t.Volume()
	}
	return v
}

// Paths returns all routes of all traffics in a flat list, with each
// entry keeping a reference to its traffic index. The order is the
// paper's P = ∪_t P_t.
func (in *MultiInstance) Paths() []FlatPath {
	var out []FlatPath
	for ti, t := range in.Traffics {
		for ri, r := range t.Routes {
			out = append(out, FlatPath{Traffic: ti, Route: ri, Path: r.Path, Volume: r.Volume})
		}
	}
	return out
}

// FlatPath is one route of one traffic in a flattened MultiInstance.
type FlatPath struct {
	Traffic int
	Route   int
	Path    graph.Path
	Volume  float64
}

// Validate checks route consistency: positive volumes, valid paths of
// at least one link, and that every route of a traffic joins the
// traffic's endpoints.
func (in *MultiInstance) Validate() error {
	if in.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	for i, t := range in.Traffics {
		if len(t.Routes) == 0 {
			return fmt.Errorf("core: multi-traffic %d has no routes", i)
		}
		for j, r := range t.Routes {
			if r.Volume <= 0 || math.IsNaN(r.Volume) || math.IsInf(r.Volume, 0) {
				return fmt.Errorf("core: multi-traffic %d route %d has bad volume %g", i, j, r.Volume)
			}
			if err := r.Path.Validate(in.G); err != nil {
				return fmt.Errorf("core: multi-traffic %d route %d: %w", i, j, err)
			}
			if r.Path.Len() == 0 {
				return fmt.Errorf("core: multi-traffic %d route %d crosses no link", i, j)
			}
			if r.Path.Src() != t.Src || r.Path.Dst() != t.Dst {
				return fmt.Errorf("core: multi-traffic %d route %d joins %d-%d, want %d-%d",
					i, j, r.Path.Src(), r.Path.Dst(), t.Src, t.Dst)
			}
		}
	}
	return nil
}

// Single converts a single-routed instance into the multi-routed model
// with one route per traffic, so §5 solvers can run on §4 instances.
func (in *Instance) Single() *MultiInstance {
	mi := &MultiInstance{G: in.G}
	for _, t := range in.Traffics {
		mi.Traffics = append(mi.Traffics, MultiTraffic{
			ID:     t.ID,
			Src:    t.Path.Src(),
			Dst:    t.Path.Dst(),
			Routes: []Route{{Path: t.Path, Volume: t.Volume}},
		})
	}
	return mi
}
