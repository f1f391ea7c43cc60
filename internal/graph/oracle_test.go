package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// refRoute and refRouteMulti are traffic.Route and traffic.RouteMulti
// as they were before paths were cut from shared arrays, reading trees
// and paths from the reference routers (reference_test.go) instead of
// the package's. They leave out traffic's unexported routable check:
// every corpus demand is routable, and the rejections stay locked by
// traffic's TestRoutersRejectUnroutableDemand.
func refRoute(pop *topology.POP, demands []traffic.Demand) (*core.Instance, error) {
	in := &core.Instance{G: pop.G}
	// One shortest-path tree per distinct source.
	bySrc := make(map[graph.NodeID]*graph.RefTree)
	for i, d := range demands {
		tree, ok := bySrc[d.Src]
		if !ok {
			tree = graph.RefShortestPathTree(pop.G, d.Src)
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

func refRouteMulti(pop *topology.POP, demands []traffic.Demand, maxRoutes int) (*core.MultiInstance, error) {
	if maxRoutes < 1 {
		return nil, fmt.Errorf("traffic: maxRoutes %d < 1", maxRoutes)
	}
	mi := &core.MultiInstance{G: pop.G}
	for i, d := range demands {
		paths := graph.RefKShortestPaths(pop.G, d.Src, d.Dst, maxRoutes)
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

// oracleCase is one POP and demand set of the oracle corpus.
type oracleCase struct {
	name    string
	pop     *topology.POP
	demands []traffic.Demand
}

// oracleCorpus is the six scenario families at three sizes and two
// seeds, the paper's Paper10/15/29/80 POPs (Paper80 left out under
// -short), and copies of every third of them but Paper80 whose links
// AddWeightedEdge gave small integer weights (equal-cost ties) or real
// weights, so the heap Dijkstra routes them.
func oracleCorpus(t *testing.T) []oracleCase {
	var cases []oracleCase
	for _, fam := range scenario.Families() {
		for _, size := range []int{6, 12, 20} {
			for seed := int64(1); seed <= 2; seed++ {
				sc, err := scenario.Generate(fam, size, seed)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, oracleCase{fmt.Sprintf("%s-%d seed %d", fam, size, seed), sc.POP, sc.Demands})
			}
		}
	}
	presets := []struct {
		name string
		cfg  topology.Config
	}{{"paper10", topology.Paper10}, {"paper15", topology.Paper15}, {"paper29", topology.Paper29}, {"paper80", topology.Paper80}}
	for _, p := range presets {
		if p.name == "paper80" && testing.Short() {
			continue
		}
		cfg := p.cfg
		cfg.Seed = 1
		pop := topology.Generate(cfg)
		cases = append(cases, oracleCase{p.name, pop, traffic.Demands(pop, traffic.Config{Seed: 1})})
	}
	rng := rand.New(rand.NewSource(1))
	n := len(cases)
	for i := 0; i < n; i += 3 {
		if cases[i].name == "paper80" {
			continue
		}
		for _, integer := range []bool{true, false} {
			c := cases[i]
			pop := *c.pop
			pop.G = reweighted(c.pop.G, rng, integer)
			cases = append(cases, oracleCase{fmt.Sprintf("%s weighted (integer %v)", c.name, integer), &pop, c.demands})
		}
	}
	return cases
}

// reweighted copies g with every link's routing weight drawn from
// {1, 2, 3}, or from [1, 4) when integer is false.
func reweighted(g *graph.Graph, rng *rand.Rand, integer bool) *graph.Graph {
	w := graph.New()
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		w.AddNode(g.Label(n))
	}
	for _, e := range g.Edges() {
		weight := float64(1 + rng.Intn(3))
		if !integer {
			weight = 1 + 3*rng.Float64()
		}
		w.AddWeightedEdge(e.U, e.V, e.Capacity, weight)
	}
	return w
}

// samePath reports whether got equals want under reflect.DeepEqual
// with the cost equal bit for bit.
func samePath(got, want graph.Path) bool {
	return reflect.DeepEqual(got, want) && math.Float64bits(got.Cost) == math.Float64bits(want.Cost)
}

// Lock: traffic.Route and traffic.RouteMulti (so Tree.KShortestPaths
// on a shared source tree) build exactly the reference instances on
// every corpus case: the same paths, costs and route shares bit for
// bit, in the same demand order, and so the same engine.Key, the
// filename under which placementd's store keeps an answer.
func TestRoutingMatchesReference(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		in, err := traffic.Route(c.pop, c.demands)
		if err != nil {
			t.Fatalf("%s: Route: %v", c.name, err)
		}
		want, err := refRoute(c.pop, c.demands)
		if err != nil {
			t.Fatalf("%s: reference Route: %v", c.name, err)
		}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("%s: Route differs from the reference", c.name)
		}
		for i, tr := range in.Traffics {
			if !samePath(tr.Path, want.Traffics[i].Path) {
				t.Fatalf("%s: traffic %d path %+v, reference %+v", c.name, i, tr.Path, want.Traffics[i].Path)
			}
		}
		sameKey(t, c.name, in, want)
		for k := 1; k <= 3; k++ {
			mi, err := traffic.RouteMulti(c.pop, c.demands, k)
			if err != nil {
				t.Fatalf("%s: RouteMulti k=%d: %v", c.name, k, err)
			}
			want, err := refRouteMulti(c.pop, c.demands, k)
			if err != nil {
				t.Fatalf("%s: reference RouteMulti k=%d: %v", c.name, k, err)
			}
			if !reflect.DeepEqual(mi, want) {
				t.Fatalf("%s: RouteMulti k=%d differs from the reference", c.name, k)
			}
			for i, tr := range mi.Traffics {
				for j, r := range tr.Routes {
					w := want.Traffics[i].Routes[j]
					if !samePath(r.Path, w.Path) || math.Float64bits(r.Volume) != math.Float64bits(w.Volume) {
						t.Fatalf("%s: k=%d traffic %d route %d = %+v, reference %+v", c.name, k, i, j, r, w)
					}
				}
			}
			sameKey(t, fmt.Sprintf("%s k=%d", c.name, k), mi, want)
		}
	}
}

func sameKey(t *testing.T, name string, got, want any) {
	t.Helper()
	kg, err := engine.Key("oracle", got)
	if err != nil {
		t.Fatal(err)
	}
	kw, err := engine.Key("oracle", want)
	if err != nil {
		t.Fatal(err)
	}
	if kg != kw {
		t.Fatalf("%s: engine.Key %s, reference %s", name, kg, kw)
	}
}
