package graph

import (
	"fmt"
	"math"
)

// Path is a simple path through the graph, stored both as the node
// sequence and the edge sequence (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
	// Cost is the sum of the routing weights of Edges.
	Cost float64
}

// Src returns the first node of the path.
func (p Path) Src() NodeID { return p.Nodes[0] }

// Dst returns the last node of the path.
func (p Path) Dst() NodeID { return p.Nodes[len(p.Nodes)-1] }

// Len returns the number of edges.
func (p Path) Len() int { return len(p.Edges) }

// Uses reports whether the path traverses edge id.
func (p Path) Uses(id EdgeID) bool {
	for _, e := range p.Edges {
		if e == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of p.
func (p Path) Clone() Path {
	return Path{
		Nodes: append([]NodeID(nil), p.Nodes...),
		Edges: append([]EdgeID(nil), p.Edges...),
		Cost:  p.Cost,
	}
}

// Validate checks internal consistency of p against g: the edge sequence
// must connect the node sequence and Cost must equal the weight sum.
func (p Path) Validate(g *Graph) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		return fmt.Errorf("graph: path has %d nodes but %d edges", len(p.Nodes), len(p.Edges))
	}
	var cost float64
	for i, id := range p.Edges {
		e := g.Edge(id)
		if !e.HasEndpoint(p.Nodes[i]) || e.Other(p.Nodes[i]) != p.Nodes[i+1] {
			return fmt.Errorf("graph: edge %d does not join node %d to node %d", id, p.Nodes[i], p.Nodes[i+1])
		}
		cost += e.Weight
	}
	if math.Abs(cost-p.Cost) > 1e-9 {
		return fmt.Errorf("graph: path cost %g does not match edge weights %g", p.Cost, cost)
	}
	return nil
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// push and pop are container/heap's Push and Pop specialised to the
// Dijkstra queue: the same sift code, so the same pop order, without
// boxing every entry in an interface.
func push(q []pqItem, it pqItem) []pqItem {
	q = append(q, it)
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

func pop(q []pqItem) (pqItem, []pqItem) {
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].dist < q[j].dist {
			j = r
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return q[n], q[:n]
}

// Tree is the shortest-path tree grown from one source: the distance
// to every node, the edge each node is reached by and the node at that
// edge's other end. It stores O(nodes) and rebuilds a path only when
// asked, by walking back to the source. A Tree is never modified after
// construction, so concurrent readers may share one.
type Tree struct {
	g      *Graph
	src    NodeID
	dist   []float64
	via    []EdgeID
	parent []NodeID
}

// ShortestPathTree grows the shortest-path tree from src: by
// breadth-first search when every link has weight 1, by Dijkstra
// otherwise. Ties are broken as in ShortestPath.
func (g *Graph) ShortestPathTree(src NodeID) *Tree {
	g.checkNode(src)
	return g.dijkstra(src, nil)
}

// Src returns the tree's source.
func (t *Tree) Src() NodeID { return t.src }

// Reachable reports whether n is reachable from the source.
func (t *Tree) Reachable(n NodeID) bool { return !math.IsInf(t.dist[n], 1) }

// Dist returns the cost of the shortest path to n (+Inf when n is
// unreachable).
func (t *Tree) Dist(n NodeID) float64 { return t.dist[n] }

// Via returns the last edge of the shortest path to n, or -1 for the
// source and unreachable nodes.
func (t *Tree) Via(n NodeID) EdgeID { return t.via[n] }

// Parent returns the node before n on the shortest path to n, or -1
// for the source and unreachable nodes.
func (t *Tree) Parent(n NodeID) NodeID { return t.parent[n] }

// AppendEdges appends the edge sequence of the shortest path to n,
// source first, to dst. n must be reachable.
func (t *Tree) AppendEdges(dst []EdgeID, n NodeID) []EdgeID {
	start := len(dst)
	for ; n != t.src; n = t.parent[n] {
		dst = append(dst, t.via[n])
	}
	seq := dst[start:]
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return dst
}

// Path returns the shortest path to dst and true, or a zero Path and
// false when dst is unreachable. It follows the via edges back to the
// source.
func (t *Tree) Path(dst NodeID) (Path, bool) {
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

// ShortestPath returns the minimum-weight path from src to dst and true,
// or a zero Path and false when dst is unreachable. Ties are broken
// deterministically by preferring lower edge IDs, so routing is stable
// across runs with the same topology (the paper's ISP-defined routing
// strategy is deterministic).
func (g *Graph) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.ShortestPathTree(src).Path(dst)
}

// dijkstra grows the shortest-path tree from src, skipping edges for
// which banned returns true (banned may be nil). Of the equal-cost
// paths to a node, the tree keeps the one whose last edge has the
// smallest ID. A graph whose links all have weight 1 gets the same tree
// from a breadth-first search (see bfs), so only weighted graphs pay
// for the heap.
func (g *Graph) dijkstra(src NodeID, banned func(EdgeID) bool) *Tree {
	n := g.NumNodes()
	t := &Tree{g: g, src: src, dist: make([]float64, n), via: make([]EdgeID, n), parent: make([]NodeID, n)}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.via[i] = -1
		t.parent[i] = -1
	}
	t.dist[src] = 0
	if g.weighted {
		t.heapSearch(banned)
	} else {
		t.bfs(banned)
	}
	return t
}

// heapSearch is Dijkstra on a binary heap, for any positive weights.
func (t *Tree) heapSearch(banned func(EdgeID) bool) {
	g, dist, via := t.g, t.dist, t.via
	q := append(make([]pqItem, 0, len(dist)), pqItem{node: t.src, dist: 0})
	done := make([]bool, len(dist))
	for len(q) > 0 {
		var it pqItem
		it, q = pop(q)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, id := range g.adj[u] {
			if banned != nil && banned(id) {
				continue
			}
			e := &g.edges[id]
			v := e.U
			if v == u {
				v = e.V
			}
			nd := dist[u] + e.Weight
			// Strict improvement, or an equal-cost path reached through a
			// smaller edge ID: keeps tie-breaking deterministic.
			if nd < dist[v]-1e-12 || (math.Abs(nd-dist[v]) <= 1e-12 && via[v] >= 0 && id < via[v]) {
				dist[v] = nd
				via[v] = id
				t.parent[v] = u
				q = push(q, pqItem{node: v, dist: nd})
			}
		}
	}
}

// bfs is the search for a graph whose links all have weight 1. A FIFO
// queue reaches the nodes layer by layer: v takes dist[u]+1 and the
// edge from the first u that reaches it, and a later edge from u's
// layer replaces that edge when its ID is smaller. This is heapSearch's
// tree exactly. The distances are small integers, so heapSearch's
// float tolerance never matters, and both searches scan every edge
// from the layer before v's, so both end with via[v] the smallest ID
// among them.
func (t *Tree) bfs(banned func(EdgeID) bool) {
	g, dist, via := t.g, t.dist, t.via
	queue := append(make([]NodeID, 0, len(dist)), t.src)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		d := dist[u] + 1
		for _, id := range g.adj[u] {
			if banned != nil && banned(id) {
				continue
			}
			e := &g.edges[id]
			v := e.U
			if v == u {
				v = e.V
			}
			switch {
			case math.IsInf(dist[v], 1):
				dist[v], via[v], t.parent[v] = d, id, u
				queue = append(queue, v)
			case dist[v] == d && id < via[v]:
				via[v], t.parent[v] = id, u
			}
		}
	}
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in non-decreasing cost order (Yen's algorithm). It is used to build the
// multi-routed traffics of §5 (load-balancing over several routes).
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst)
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
			spur, ok := g.dijkstra(spurNode, ban).Path(dst)
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
