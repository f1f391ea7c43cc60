package active

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// The probe construction ComputeProbesTrees replaced: shortest-path
// trees as map[NodeID]Path, every candidate path cloned, and a
// string-keyed dedupe. It is kept verbatim, renamed, as the oracle the
// tests below hold the tree-based construction to.

// refPaths is the old map form of a shortest-path tree: the path to
// every reachable node.
func refPaths(g *graph.Graph, src graph.NodeID) map[graph.NodeID]graph.Path {
	tree := g.ShortestPathTree(src)
	out := make(map[graph.NodeID]graph.Path, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		if p, ok := tree.Path(graph.NodeID(n)); ok {
			out[graph.NodeID(n)] = p
		}
	}
	return out
}

func refComputeProbesTrees(g *graph.Graph, candidates []graph.NodeID, treeOf func(graph.NodeID) map[graph.NodeID]graph.Path) (ProbeSet, error) {
	if len(candidates) == 0 {
		return ProbeSet{}, fmt.Errorf("active: no candidate beacons")
	}
	seen := make(map[graph.NodeID]bool, len(candidates))
	for _, c := range candidates {
		if seen[c] {
			return ProbeSet{}, fmt.Errorf("active: duplicate candidate %d", c)
		}
		seen[c] = true
	}

	// Candidate probes between beacon pairs (both extremities in V_B):
	// the probes of [15] run between measurement points, and they are
	// what gives the placement phase freedom (either extremity can be
	// the sender). Extend-across probes to a link's far end are added
	// only as a fallback for links no pair path crosses.
	var pairProbes []Probe
	trees := make(map[graph.NodeID]map[graph.NodeID]graph.Path, len(candidates))
	for _, u := range candidates {
		trees[u] = treeOf(u)
	}
	for i, u := range candidates {
		for _, v := range candidates[i+1:] {
			if p, ok := trees[u][v]; ok && p.Len() > 0 {
				pairProbes = append(pairProbes, Probe{U: u, V: v, Path: p.Clone()})
			}
		}
	}
	pairProbes = refDedupeProbes(pairProbes)
	// Extend-across fallback probes are generated lazily: on the
	// paper's instances the beacon-pair paths almost always cover every
	// link, so the candidates×edges fallback sweep (and its path
	// clones) would be pure waste in the common case.
	fallbacks := func() []Probe {
		var fall []Probe
		for _, u := range candidates {
			for _, e := range g.Edges() {
				if p, ok := refExtendAcross(g, trees[u], u, e); ok {
					fall = append(fall, p)
				}
			}
		}
		return refDedupeProbes(fall)
	}

	// Greedy link cover in two passes: beacon-pair probes first, then
	// fallback probes for whatever remains uncoverable by pair paths.
	// Gains are maintained incrementally (edge → probes index,
	// decremented as edges become covered) instead of rescanning every
	// probe path each round — the historical scan dominated the Figure
	// 10/11 and §7 large-POP wall time.
	covered := make([]bool, g.NumEdges())
	remaining := g.NumEdges()
	var chosen []Probe
	for pass := 0; pass < 2 && remaining > 0; pass++ {
		cand := pairProbes
		if pass == 1 {
			cand = fallbacks()
		}
		onEdge := make([][]int32, g.NumEdges())
		gain := make([]int, len(cand))
		for i, p := range cand {
			for _, e := range p.Path.Edges {
				if !covered[e] {
					gain[i]++
					onEdge[e] = append(onEdge[e], int32(i))
				}
			}
		}
		for remaining > 0 {
			best, bestGain := -1, 0
			for i, gn := range gain {
				if gn > bestGain {
					best, bestGain = i, gn
				}
			}
			if best < 0 {
				break // this pass can add nothing more
			}
			for _, e := range cand[best].Path.Edges {
				if !covered[e] {
					covered[e] = true
					remaining--
					for _, pi := range onEdge[e] {
						gain[pi]--
					}
				}
			}
			chosen = append(chosen, cand[best])
		}
	}
	if remaining > 0 {
		return ProbeSet{}, fmt.Errorf("active: %d links unreachable from any candidate beacon", remaining)
	}
	return ProbeSet{G: g, Probes: chosen, Candidates: append([]graph.NodeID(nil), candidates...)}, nil
}

// extendAcross returns the probe from u that crosses edge e at its far
// end: shortest path u⇝(nearest endpoint of e) plus e itself. It fails
// when e's endpoints are unreachable or the extension would revisit a
// node (non-simple path).
func refExtendAcross(g *graph.Graph, paths map[graph.NodeID]graph.Path, u graph.NodeID, e graph.Edge) (Probe, bool) {
	pa, oka := paths[e.U]
	pb, okb := paths[e.V]
	if !oka && !okb {
		return Probe{}, false
	}
	// If the shortest path to the far endpoint already uses e, it is a
	// probe crossing e all by itself.
	if okb && pb.Uses(e.ID) {
		return Probe{U: u, V: e.V, Path: pb.Clone()}, true
	}
	if oka && pa.Uses(e.ID) {
		return Probe{U: u, V: e.U, Path: pa.Clone()}, true
	}
	// Otherwise extend the shorter reach across e.
	try := func(base graph.Path, from, to graph.NodeID) (Probe, bool) {
		for _, n := range base.Nodes {
			if n == to {
				return Probe{}, false // would revisit `to`
			}
		}
		p := base.Clone()
		p.Nodes = append(p.Nodes, to)
		p.Edges = append(p.Edges, e.ID)
		p.Cost += e.Weight
		return Probe{U: u, V: to, Path: p}, true
	}
	if oka && okb {
		if pa.Cost <= pb.Cost {
			if p, ok := try(pa, e.U, e.V); ok {
				return p, true
			}
			return try(pb, e.V, e.U)
		}
		if p, ok := try(pb, e.V, e.U); ok {
			return p, true
		}
		return try(pa, e.U, e.V)
	}
	if oka {
		return try(pa, e.U, e.V)
	}
	return try(pb, e.V, e.U)
}

func refDedupeProbes(probes []Probe) []Probe {
	seen := make(map[string]bool, len(probes))
	var out []Probe
	var buf []byte
	for _, p := range probes {
		buf = buf[:0]
		for _, e := range p.Path.Edges {
			buf = append(buf, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
		}
		if !seen[string(buf)] {
			seen[string(buf)] = true
			out = append(out, p)
		}
	}
	return out
}

// sameAsReference fails t unless ComputeProbes returns exactly what the
// old construction returns on (g, cands): the same probes in the same
// order with the same paths, or the same error text.
func sameAsReference(t *testing.T, name string, g *graph.Graph, cands []graph.NodeID) {
	t.Helper()
	got, err := ComputeProbes(g, cands)
	want, wantErr := refComputeProbesTrees(g, cands, func(u graph.NodeID) map[graph.NodeID]graph.Path {
		return refPaths(g, u)
	})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, old construction %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d probes differ from the old construction's %d:\n got %+v\nwant %+v",
			name, len(got.Probes), len(want.Probes), got.Probes, want.Probes)
	}
}

// fig11Sweep returns the Figure 11 candidate draws on one Paper80 POP:
// |V_B| = 2, 4, …, 80 routers, drawn from rand seed*7919 as the figure
// draws them.
func fig11Sweep(seed int64) (*topology.POP, [][]graph.NodeID) {
	cfg := topology.Paper80
	cfg.Seed = seed
	pop := topology.Generate(cfg)
	routers := append(append([]graph.NodeID(nil), pop.Backbone...), pop.Access...)
	rng := rand.New(rand.NewSource(seed * 7919))
	var sweep [][]graph.NodeID
	for nb := 2; nb <= len(routers); nb += 2 {
		perm := rng.Perm(len(routers))
		cands := make([]graph.NodeID, nb)
		for i := range cands {
			cands[i] = routers[perm[i]]
		}
		sweep = append(sweep, cands)
	}
	return pop, sweep
}

// randomCandidates draws a random non-empty candidate subset of g's
// nodes in random order.
func randomCandidates(rng *rand.Rand, g *graph.Graph) []graph.NodeID {
	perm := rng.Perm(g.NumNodes())
	cands := make([]graph.NodeID, 1+rng.Intn(g.NumNodes()))
	for i := range cands {
		cands[i] = graph.NodeID(perm[i])
	}
	return cands
}

// shortCut returns n, or cut under -short: the race job runs the
// reference locks on the first POPs only.
func shortCut(n, cut int64) int64 {
	if testing.Short() {
		return cut
	}
	return n
}

func TestComputeProbesMatchesReferenceFig11(t *testing.T) {
	for seed := int64(0); seed < shortCut(4, 1); seed++ {
		pop, sweep := fig11Sweep(seed)
		for _, cands := range sweep {
			sameAsReference(t, fmt.Sprintf("Paper80 seed %d |V_B|=%d", seed, len(cands)), pop.G, cands)
		}
	}
}

func TestComputeProbesMatchesReferencePresets(t *testing.T) {
	for _, preset := range []topology.Config{topology.Paper10, topology.Paper15, topology.Paper29} {
		for seed := int64(0); seed < shortCut(8, 2); seed++ {
			cfg := preset
			cfg.Seed = seed
			pop := topology.Generate(cfg)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				sameAsReference(t, fmt.Sprintf("%d routers seed %d draw %d", preset.Routers, seed, i), pop.G, randomCandidates(rng, pop.G))
			}
		}
	}
}

// Random multigraphs: small integer weights force routing ties,
// parallel edges and disconnected parts give unreachable links, and
// some candidate lists are empty or repeat a node. Every third draw
// gives every link weight 1, as on the POPs, so its trees come from the
// breadth-first search; the reference rebuilds paths from the trees'
// via edges, the construction walks their parents.
func TestComputeProbesMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				w := float64(1 + rng.Intn(3))
				if seed%3 == 0 {
					w = 1
				}
				g.AddWeightedEdge(u, v, 1, w)
			}
		}
		cands := randomCandidates(rng, g)
		switch rng.Intn(20) {
		case 0:
			cands = nil
		case 1:
			cands = append(cands, cands[rng.Intn(len(cands))])
		}
		sameAsReference(t, fmt.Sprintf("random seed %d", seed), g, cands)
	}
}

// Eight goroutines probe through one memoizing provider that hands the
// same *graph.Tree to every caller, as the figure sweeps' engine cache
// does; every result must equal the serial one.
func TestComputeProbesSharedTreesConcurrent(t *testing.T) {
	pop, sweep := fig11Sweep(1)
	serial := make([]ProbeSet, len(sweep))
	for i, cands := range sweep {
		ps, err := ComputeProbes(pop.G, cands)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = ps
	}
	var mu sync.Mutex
	memo := make(map[graph.NodeID]*graph.Tree)
	treeOf := func(u graph.NodeID) *graph.Tree {
		mu.Lock()
		defer mu.Unlock()
		if memo[u] == nil {
			memo[u] = pop.G.ShortestPathTree(u)
		}
		return memo[u]
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sweep); i += workers {
				ps, err := ComputeProbesTrees(pop.G, sweep[i], treeOf)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ps, serial[i]) {
					t.Errorf("|V_B|=%d: shared-tree probes differ from the serial ones", len(sweep[i]))
				}
			}
		}(w)
	}
	wg.Wait()
}
