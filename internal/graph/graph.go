// Package graph provides the network-graph substrate used throughout the
// repository: a compact undirected multigraph with integer node and edge
// identifiers, shortest-path routing (breadth-first search while every
// link has routing weight 1, as on every POP the repository builds, and
// Dijkstra otherwise; both grow the same tree), Yen's k-shortest paths,
// breadth-first reachability and DOT export.
//
// The paper models a POP as a graph G = (V, E) where V is the set of
// routers and E the set of communication links (§4.1). Every higher-level
// package (topology, traffic, passive, active) works on this
// representation.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node (router) in a Graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1.
type NodeID int

// EdgeID identifies an undirected edge (link). IDs are dense: a graph
// with m edges uses IDs 0..m-1.
type EdgeID int

// Edge is an undirected link between two routers with a capacity in
// arbitrary bandwidth units (the paper speaks of OC-3 .. OC-192 links;
// capacities only matter for load reporting, not feasibility).
type Edge struct {
	ID       EdgeID
	U, V     NodeID
	Capacity float64
	// Weight is the routing metric used by shortest-path routing
	// (IGP cost). The paper assumes shortest-path routing inside the
	// POP (§4.4).
	Weight float64
}

// Other returns the endpoint of e opposite to n. It panics if n is not
// an endpoint of e.
func (e Edge) Other(n NodeID) NodeID {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d-%d)", n, e.ID, e.U, e.V))
}

// HasEndpoint reports whether n is one of e's endpoints.
func (e Edge) HasEndpoint(n NodeID) bool { return e.U == n || e.V == n }

// Graph is an undirected multigraph with labelled nodes. The zero value
// is an empty graph ready for use.
type Graph struct {
	labels []string
	edges  []Edge
	// adj[n] lists the IDs of the edges incident to n.
	adj [][]EdgeID
	// weighted records that some edge's routing weight is not exactly
	// 1. While it is false, shortest-path trees come from a
	// breadth-first search instead of the heap Dijkstra.
	weighted bool
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node with the given human-readable label and returns
// its ID.
func (g *Graph) AddNode(label string) NodeID {
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, label)
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge appends an undirected edge between u and v with the given
// capacity and unit routing weight, returning its ID. It panics if u or v
// is out of range or u == v (the POP model has no self-loops).
func (g *Graph) AddEdge(u, v NodeID, capacity float64) EdgeID {
	return g.AddWeightedEdge(u, v, capacity, 1)
}

// AddWeightedEdge is AddEdge with an explicit routing weight.
func (g *Graph) AddWeightedEdge(u, v NodeID, capacity, weight float64) EdgeID {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	g.checkNode(u)
	g.checkNode(v)
	if weight <= 0 {
		panic(fmt.Sprintf("graph: non-positive routing weight %g", weight))
	}
	if weight != 1 {
		g.weighted = true
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, Capacity: capacity, Weight: weight})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	return id
}

func (g *Graph) checkNode(n NodeID) {
	if n < 0 || int(n) >= len(g.labels) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", n, len(g.labels)))
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Label returns the label of node n.
func (g *Graph) Label(n NodeID) string {
	g.checkNode(n)
	return g.labels[n]
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	if id < 0 || int(id) >= len(g.edges) {
		panic(fmt.Sprintf("graph: edge %d out of range [0,%d)", id, len(g.edges)))
	}
	return g.edges[id]
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Incident returns the IDs of the edges incident to n. The returned slice
// must not be modified.
func (g *Graph) Incident(n NodeID) []EdgeID {
	g.checkNode(n)
	return g.adj[n]
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.Incident(n)) }

// EdgeBetween returns the minimum-weight edge joining u and v and true,
// or a zero Edge and false when no such edge exists.
func (g *Graph) EdgeBetween(u, v NodeID) (Edge, bool) {
	g.checkNode(u)
	g.checkNode(v)
	best, found := Edge{}, false
	for _, id := range g.adj[u] {
		e := g.edges[id]
		if e.HasEndpoint(v) && (!found || e.Weight < best.Weight) {
			best, found = e, true
		}
	}
	return best, found
}

// Neighbors returns the sorted, de-duplicated IDs of nodes adjacent to n.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	seen := make(map[NodeID]bool, len(g.adj[n]))
	var out []NodeID
	for _, id := range g.Incident(n) {
		m := g.edges[id].Other(n)
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Connected reports whether the graph is connected (true for the empty
// graph).
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	return len(g.Reachable(0)) == n
}

// Reachable returns the set of nodes reachable from src (including src),
// in BFS order.
func (g *Graph) Reachable(src NodeID) []NodeID {
	g.checkNode(src)
	visited := make([]bool, g.NumNodes())
	queue := []NodeID{src}
	visited[src] = true
	var order []NodeID
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, id := range g.adj[n] {
			m := g.edges[id].Other(n)
			if !visited[m] {
				visited[m] = true
				queue = append(queue, m)
			}
		}
	}
	return order
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels:   append([]string(nil), g.labels...),
		edges:    append([]Edge(nil), g.edges...),
		adj:      make([][]EdgeID, len(g.adj)),
		weighted: g.weighted,
	}
	for i, a := range g.adj {
		c.adj[i] = append([]EdgeID(nil), a...)
	}
	return c
}
