package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The routers from before paths were cut from shared arrays, kept as
// test oracles: Tree.Path, which grew each path by appending and then
// reversed it, and KShortestPaths, which built two ban maps and a
// fresh tree for every spur and joined every spur path to its root in
// new slices. Their trees come from refDijkstra, the container/heap
// search, so the oracles share only Graph with the code they check.

// refTree is a shortest-path tree as the reference Path reads it:
// refDijkstra's distances and via edges.
type refTree struct {
	g    *Graph
	src  NodeID
	dist []float64
	via  []EdgeID
}

func (g *Graph) refTree(src NodeID, banned func(EdgeID) bool) *refTree {
	g.checkNode(src)
	dist, via := refDijkstra(g, src, banned)
	return &refTree{g: g, src: src, dist: dist, via: via}
}

// Reachable reports whether n is reachable from the source.
func (t *refTree) Reachable(n NodeID) bool { return !math.IsInf(t.dist[n], 1) }

// Path is the reference Tree.Path.
func (t *refTree) Path(dst NodeID) (Path, bool) {
	t.g.checkNode(dst)
	if !t.Reachable(dst) {
		return Path{}, false
	}
	var redges []EdgeID
	var rnodes []NodeID
	cur := dst
	rnodes = append(rnodes, cur)
	for cur != t.src {
		id := t.via[cur]
		redges = append(redges, id)
		cur = t.g.edges[id].Other(cur)
		rnodes = append(rnodes, cur)
	}
	// Reverse in place.
	for i, j := 0, len(redges)-1; i < j; i, j = i+1, j-1 {
		redges[i], redges[j] = redges[j], redges[i]
	}
	for i, j := 0, len(rnodes)-1; i < j; i, j = i+1, j-1 {
		rnodes[i], rnodes[j] = rnodes[j], rnodes[i]
	}
	return Path{Nodes: rnodes, Edges: redges, Cost: t.dist[dst]}, true
}

// refKShortestPaths is the reference KShortestPaths, its shortest path
// and spur paths read from refTree.
func (g *Graph) refKShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.refTree(src, nil).Path(dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// For each node of the previous path except the last, compute a
		// spur path that deviates there.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]

			bannedEdges := make(map[EdgeID]bool)
			for _, p := range paths {
				if sharesRoot(p, rootNodes) && p.Len() > i {
					bannedEdges[p.Edges[i]] = true
				}
			}
			bannedNodes := make(map[NodeID]bool)
			for _, n := range rootNodes[:len(rootNodes)-1] {
				bannedNodes[n] = true
			}
			ban := func(id EdgeID) bool {
				if bannedEdges[id] {
					return true
				}
				e := g.edges[id]
				return bannedNodes[e.U] || bannedNodes[e.V]
			}
			spur, ok := g.refTree(spurNode, ban).Path(dst)
			if !ok {
				continue
			}
			total := joinPaths(g, rootNodes, rootEdges, spur)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Extract the cheapest candidate.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].Cost < candidates[best].Cost {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func sharesRoot(p Path, rootNodes []NodeID) bool {
	if len(p.Nodes) < len(rootNodes) {
		return false
	}
	for i, n := range rootNodes {
		if p.Nodes[i] != n {
			return false
		}
	}
	return true
}

func joinPaths(g *Graph, rootNodes []NodeID, rootEdges []EdgeID, spur Path) Path {
	nodes := append(append([]NodeID(nil), rootNodes...), spur.Nodes[1:]...)
	edges := append(append([]EdgeID(nil), rootEdges...), spur.Edges...)
	var cost float64
	for _, id := range edges {
		cost += g.edges[id].Weight
	}
	return Path{Nodes: nodes, Edges: edges, Cost: cost}
}

func containsPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if equalEdges(q.Edges, p.Edges) {
			return true
		}
	}
	return false
}

func equalEdges(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samePaths reports whether got equals want under reflect.DeepEqual
// with every cost equal bit for bit.
func samePaths(got, want []Path) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
			return false
		}
	}
	return true
}

// Lock: Tree.Path, ShortestPath, Graph.KShortestPaths and
// Tree.KShortestPaths answer exactly as the reference routers on random
// multigraphs: unit weights (the breadth-first search), small integer
// weights that force equal-cost ties, and real weights set by
// AddWeightedEdge (the heap), with parallel edges and parts no link
// joins. Yen's paths are cut from shared arrays, so each must also be
// capped at its own length.
func TestRoutersMatchReference(t *testing.T) {
	graphs := []struct {
		name  string
		build func(*rand.Rand) *Graph
	}{
		{"unit", unitMultigraph},
		{"ties", func(rng *rand.Rand) *Graph {
			g := unitMultigraph(rng)
			for i := range g.edges {
				g.edges[i].Weight = float64(1 + rng.Intn(3))
			}
			g.weighted = true
			return g
		}},
		{"real", func(rng *rand.Rand) *Graph {
			n := 3 + rng.Intn(18)
			return randomConnected(rng, n, rng.Intn(2*n))
		}},
	}
	for _, kind := range graphs {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := kind.build(rng)
			n := g.NumNodes()
			for s := NodeID(0); int(s) < n; s++ {
				tree, ref := g.ShortestPathTree(s), g.refTree(s, nil)
				for d := NodeID(0); int(d) < n; d++ {
					p, ok := tree.Path(d)
					rp, rok := ref.Path(d)
					if ok != rok || !samePaths([]Path{p}, []Path{rp}) {
						t.Fatalf("%s seed %d: Path(%d→%d) = %+v %v, reference %+v %v", kind.name, seed, s, d, p, ok, rp, rok)
					}
				}
				d := NodeID(rng.Intn(n))
				k := 1 + rng.Intn(5)
				want := g.refKShortestPaths(s, d, k)
				for _, got := range [][]Path{g.KShortestPaths(s, d, k), tree.KShortestPaths(d, k)} {
					if !samePaths(got, want) {
						t.Fatalf("%s seed %d: KShortestPaths(%d→%d, %d) = %+v, reference %+v", kind.name, seed, s, d, k, got, want)
					}
					for i, p := range got {
						if cap(p.Nodes) != len(p.Nodes) || cap(p.Edges) != len(p.Edges) {
							t.Fatalf("%s seed %d: KShortestPaths(%d→%d, %d) path %d has caps %d/%d for lengths %d/%d",
								kind.name, seed, s, d, k, i, cap(p.Nodes), cap(p.Edges), len(p.Nodes), len(p.Edges))
						}
					}
				}
			}
		}
	}
}
