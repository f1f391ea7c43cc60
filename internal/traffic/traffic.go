// Package traffic generates traffic matrices over POP topologies and
// routes them into solver instances.
//
// Following §4.4 of the paper: real traffic matrices were unavailable to
// the authors too, so demands are generated randomly between all ordered
// pairs of virtual endpoints, with a few "preferred pairs" carrying much
// higher volume so the distribution is non-uniform (Bhattacharyya et
// al. [2] observed that the geographic spread of traffic across egress
// points is far from uniform). Routing is shortest-path and, as in the
// paper, not assumed symmetric. The multi-routed variant of §5 splits a
// demand over several shortest routes for load balancing.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Demand is an un-routed traffic request between two endpoints.
type Demand struct {
	Src, Dst graph.NodeID
	Volume   float64
}

// Config parameterizes demand generation.
type Config struct {
	// Seed drives the random volumes and the preferred-pair choice.
	Seed int64
	// PreferredPairs is the number of endpoint pairs boosted to hot
	// volume; default max(2, endpoints/6).
	PreferredPairs int
	// BaseVolume is the maximum volume of a normal demand (uniform in
	// (0, BaseVolume]); default 10.
	BaseVolume float64
	// HotFactor multiplies the volume of preferred pairs; default 20.
	HotFactor float64
}

func (c Config) withDefaults(endpoints int) Config {
	if c.PreferredPairs == 0 {
		c.PreferredPairs = endpoints / 6
		if c.PreferredPairs < 2 {
			c.PreferredPairs = 2
		}
	}
	if c.BaseVolume == 0 {
		c.BaseVolume = 10
	}
	if c.HotFactor == 0 {
		c.HotFactor = 20
	}
	return c
}

// Demands generates one demand per ordered pair of distinct endpoints of
// the POP (n·(n−1) demands for n endpoints, matching the paper's traffic
// counts), with non-uniform volumes.
func Demands(pop *topology.POP, cfg Config) []Demand {
	eps := pop.Endpoints
	cfg = cfg.withDefaults(len(eps))
	rng := rand.New(rand.NewSource(cfg.Seed))

	hot := make(map[[2]graph.NodeID]bool, cfg.PreferredPairs)
	for len(hot) < cfg.PreferredPairs && len(eps) >= 2 {
		s := eps[rng.Intn(len(eps))]
		d := eps[rng.Intn(len(eps))]
		if s != d {
			hot[[2]graph.NodeID{s, d}] = true
		}
	}

	var out []Demand
	for _, s := range eps {
		for _, d := range eps {
			if s == d {
				continue
			}
			v := rng.Float64() * cfg.BaseVolume
			if v <= 0 {
				v = cfg.BaseVolume / 2
			}
			if hot[[2]graph.NodeID{s, d}] {
				v *= cfg.HotFactor
			}
			out = append(out, Demand{Src: s, Dst: d, Volume: v})
		}
	}
	return out
}

// Route builds a single-routed PPM instance: every demand follows its
// shortest path (the paper's §4.4 assumption; paths are not assumed
// symmetric).
func Route(pop *topology.POP, demands []Demand) (*core.Instance, error) {
	in := &core.Instance{G: pop.G}
	// One shortest-path tree per distinct source.
	bySrc := make(map[graph.NodeID]*graph.Tree)
	for i, d := range demands {
		if err := routable(pop.G, i, d); err != nil {
			return nil, err
		}
		tree, ok := bySrc[d.Src]
		if !ok {
			tree = pop.G.ShortestPathTree(d.Src)
			bySrc[d.Src] = tree
		}
		if !tree.Reachable(d.Dst) {
			return nil, fmt.Errorf("traffic: demand %d: no route %d→%d", i, d.Src, d.Dst)
		}
		p, _ := tree.Path(d.Dst)
		in.Traffics = append(in.Traffics, core.Traffic{ID: i, Path: p, Volume: d.Volume})
	}
	return in, nil
}

// RouteMulti builds a §5 multi-routed instance: each demand is split
// over up to maxRoutes loopless shortest routes; the split is weighted
// by inverse path cost (shorter routes carry more), normalizing to the
// demand volume, which mimics load-balanced IGP routing.
func RouteMulti(pop *topology.POP, demands []Demand, maxRoutes int) (*core.MultiInstance, error) {
	if maxRoutes < 1 {
		return nil, fmt.Errorf("traffic: maxRoutes %d < 1", maxRoutes)
	}
	mi := &core.MultiInstance{G: pop.G}
	for i, d := range demands {
		if err := routable(pop.G, i, d); err != nil {
			return nil, err
		}
		paths := pop.G.KShortestPaths(d.Src, d.Dst, maxRoutes)
		if len(paths) == 0 {
			return nil, fmt.Errorf("traffic: demand %d: no route %d→%d", i, d.Src, d.Dst)
		}
		inv := 0.0
		for _, p := range paths {
			inv += 1 / p.Cost
		}
		mt := core.MultiTraffic{ID: i, Src: d.Src, Dst: d.Dst}
		for _, p := range paths {
			share := (1 / p.Cost) / inv
			mt.Routes = append(mt.Routes, core.Route{Path: p, Volume: d.Volume * share})
		}
		mi.Traffics = append(mi.Traffics, mt)
	}
	return mi, nil
}

// routable rejects demand i when no route can carry it: an endpoint
// outside g, or a source that is its own destination. Such a route
// would cross no link, so no tap could see it, and its inverse-cost
// share in RouteMulti would be NaN. It also rejects a volume that is
// not a positive finite number, which no solver accepts.
func routable(g *graph.Graph, i int, d Demand) error {
	n := graph.NodeID(g.NumNodes())
	switch {
	case d.Src < 0 || d.Src >= n || d.Dst < 0 || d.Dst >= n:
		return fmt.Errorf("traffic: demand %d: endpoints %d→%d outside the %d-node graph", i, d.Src, d.Dst, n)
	case d.Src == d.Dst:
		return fmt.Errorf("traffic: demand %d: source and destination are both node %d", i, d.Src)
	case !(d.Volume > 0) || math.IsInf(d.Volume, 0):
		return fmt.Errorf("traffic: demand %d: volume %g is not a positive finite number", i, d.Volume)
	}
	return nil
}

// Scale returns a copy of demands with every volume multiplied by f;
// used by the dynamic-traffic experiments (§5.4) to model drift.
func Scale(demands []Demand, f float64) []Demand {
	out := make([]Demand, len(demands))
	for i, d := range demands {
		d.Volume *= f
		out[i] = d
	}
	return out
}

// Perturb returns a copy of demands with volumes multiplied by random
// factors in [1-amount, 1+amount], modelling traffic fluctuation inside
// the POP (§5.4). A deterministic rng seed makes experiments repeatable.
func Perturb(demands []Demand, amount float64, seed int64) []Demand {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Demand, len(demands))
	for i, d := range demands {
		f := 1 + (rng.Float64()*2-1)*amount
		if f < 0.01 {
			f = 0.01
		}
		d.Volume *= f
		out[i] = d
	}
	return out
}
