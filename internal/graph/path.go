package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
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

// hops returns the number of edges on the shortest path to the
// reachable node n.
func (t *Tree) hops(n NodeID) int {
	h := 0
	for ; n != t.src; n = t.parent[n] {
		h++
	}
	return h
}

// fill writes the shortest path to n, back to front, into nodes and
// edges, which hold exactly its hops+1 nodes and hops edges.
func (t *Tree) fill(nodes []NodeID, edges []EdgeID, n NodeID) {
	for i := len(edges) - 1; i >= 0; i-- {
		nodes[i+1], edges[i] = n, t.via[n]
		n = t.parent[n]
	}
	nodes[0] = n
}

// Path returns the shortest path to dst and true, or a zero Path and
// false when dst is unreachable. It counts the hops back to the
// source, allocates Nodes and Edges once at that length and fills
// them back to front (the path to the source itself has nil Edges).
func (t *Tree) Path(dst NodeID) (Path, bool) {
	t.g.checkNode(dst)
	if !t.Reachable(dst) {
		return Path{}, false
	}
	h := t.hops(dst)
	p := Path{Nodes: make([]NodeID, h+1), Cost: t.dist[dst]}
	if h > 0 {
		p.Edges = make([]EdgeID, h)
	}
	t.fill(p.Nodes, p.Edges, dst)
	return p, true
}

// ShortestPath returns the minimum-weight path from src to dst and true,
// or a zero Path and false when dst is unreachable. Ties are broken
// deterministically by preferring lower edge IDs, so routing is stable
// across runs with the same topology (the paper's ISP-defined routing
// strategy is deterministic).
func (g *Graph) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.ShortestPathTree(src).Path(dst)
}

// bans marks what a search may not use: every edge set in edge and
// every edge with an end set in node. A nil *bans bans nothing.
type bans struct {
	edge []bool
	node []bool
}

func (b *bans) has(id EdgeID, e *Edge) bool {
	return b.edge[id] || b.node[e.U] || b.node[e.V]
}

// scratch is the working memory of a search: the breadth-first queue,
// or Dijkstra's heap and settled marks. The zero value is ready to use.
type scratch struct {
	queue []NodeID
	heap  []pqItem
	done  []bool
}

// resized returns s with length n, reusing its array when it is large
// enough. The contents are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dijkstra grows a new shortest-path tree from src, skipping the edges
// b bans (b may be nil).
func (g *Graph) dijkstra(src NodeID, b *bans) *Tree {
	t := &Tree{g: g}
	t.grow(src, b, &scratch{})
	return t
}

// grow makes t the shortest-path tree from src, skipping the edges b
// bans, in t's own arrays and s's buffers when they are large enough.
// Of the equal-cost paths to a node, the tree keeps the one whose last
// edge has the smallest ID. A graph whose links all have weight 1 gets
// the same tree from a breadth-first search (see bfs), so only
// weighted graphs pay for the heap.
func (t *Tree) grow(src NodeID, b *bans, s *scratch) {
	n := t.g.NumNodes()
	t.src = src
	t.dist, t.via, t.parent = resized(t.dist, n), resized(t.via, n), resized(t.parent, n)
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.via[i] = -1
		t.parent[i] = -1
	}
	t.dist[src] = 0
	if t.g.weighted {
		t.heapSearch(b, s)
	} else {
		t.bfs(b, s)
	}
}

// heapSearch is Dijkstra on a binary heap, for any positive weights.
func (t *Tree) heapSearch(b *bans, s *scratch) {
	g, dist, via := t.g, t.dist, t.via
	if cap(s.heap) < len(dist) {
		s.heap = make([]pqItem, 0, len(dist))
	}
	q := append(s.heap[:0], pqItem{node: t.src, dist: 0})
	s.done = resized(s.done, len(dist))
	done := s.done
	clear(done)
	for len(q) > 0 {
		var it pqItem
		it, q = pop(q)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, id := range g.adj[u] {
			e := &g.edges[id]
			if b != nil && b.has(id, e) {
				continue
			}
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
	s.heap = q
}

// bfs is the search for a graph whose links all have weight 1. A FIFO
// queue reaches the nodes layer by layer: v takes dist[u]+1 and the
// edge from the first u that reaches it, and a later edge from u's
// layer replaces that edge when its ID is smaller. This is heapSearch's
// tree exactly. The distances are small integers, so heapSearch's
// float tolerance never matters, and both searches scan every edge
// from the layer before v's, so both end with via[v] the smallest ID
// among them.
func (t *Tree) bfs(b *bans, s *scratch) {
	g, dist, via := t.g, t.dist, t.via
	if cap(s.queue) < len(dist) {
		s.queue = make([]NodeID, 0, len(dist))
	}
	queue := append(s.queue[:0], t.src)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		d := dist[u] + 1
		for _, id := range g.adj[u] {
			e := &g.edges[id]
			if b != nil && b.has(id, e) {
				continue
			}
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
	s.queue = queue
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in non-decreasing cost order (Yen's algorithm). It is used to build the
// multi-routed traffics of §5 (load-balancing over several routes).
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	return g.ShortestPathTree(src).KShortestPaths(dst, k)
}

// KShortestPaths is Graph.KShortestPaths from the tree's source, whose
// first path is t.Path(dst): callers routing several destinations from
// one source share the tree. The spur searches run in pooled scratch:
// ban marks and one spur tree regrown in place.
func (t *Tree) KShortestPaths(dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := t.Path(dst)
	if !ok {
		return nil
	}
	y := yenPool.Get().(*yen)
	y.reset(t.g)
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// For each node of the previous path except the last, look for a
		// spur path that deviates there.
		for i := 0; i < prev.Len(); i++ {
			if c, ok := y.spur(paths, i, dst); ok && !hasPath(paths, c) && !hasPath(candidates, c) {
				candidates = append(candidates, c)
			}
		}
		clear(y.node)
		if len(candidates) == 0 {
			break
		}
		// Accept the cheapest candidate, the first of equal cost.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].Cost < candidates[best].Cost {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	y.tree.g = nil
	yenPool.Put(y)
	return paths
}

// yen is the working memory of Tree.KShortestPaths: the ban marks and
// the spur tree of its searches.
type yen struct {
	bans
	scratch
	tree   Tree     // the current spur tree
	banned []EdgeID // edges marked for the current spur search
}

var yenPool = sync.Pool{New: func() any { return new(yen) }}

func (y *yen) reset(g *Graph) {
	y.tree.g = g
	y.edge = resized(y.edge, g.NumEdges())
	y.node = resized(y.node, g.NumNodes())
	clear(y.edge)
	clear(y.node)
}

// spur returns the path to dst that follows the last of paths for its
// first i edges and leaves it at its i-th node by an edge no path of
// paths with the same root takes there, avoiding the root's other
// nodes, and whether there is one.
func (y *yen) spur(paths []Path, i int, dst NodeID) (Path, bool) {
	prev := paths[len(paths)-1]
	root := prev.Nodes[:i+1]
	if i > 0 {
		// The root's nodes before the spur node, marked one per step;
		// KShortestPaths clears them once prev's spurs are done.
		y.node[root[i-1]] = true
	}
	for _, p := range paths {
		if p.Len() > i && slices.Equal(p.Nodes[:i+1], root) {
			y.edge[p.Edges[i]] = true
			y.banned = append(y.banned, p.Edges[i])
		}
	}
	y.tree.grow(root[i], &y.bans, &y.scratch)
	for _, id := range y.banned {
		y.edge[id] = false
	}
	y.banned = y.banned[:0]
	if !y.tree.Reachable(dst) {
		return Path{}, false
	}
	// The root, then the spur path, whose first node is the root's last.
	h := y.tree.hops(dst)
	c := Path{Nodes: make([]NodeID, i+h+1), Edges: make([]EdgeID, i+h)}
	copy(c.Nodes, root)
	copy(c.Edges, prev.Edges[:i])
	y.tree.fill(c.Nodes[i:], c.Edges[i:], dst)
	for _, id := range c.Edges {
		c.Cost += y.tree.g.edges[id].Weight
	}
	return c, true
}

// hasPath reports whether ps has a path with p's edge sequence.
func hasPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if slices.Equal(q.Edges, p.Edges) {
			return true
		}
	}
	return false
}
