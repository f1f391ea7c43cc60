package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// line builds a path graph 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestAddNodeEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if a != 0 || b != 1 {
		t.Fatalf("node ids = %d,%d, want 0,1", a, b)
	}
	e := g.AddEdge(a, b, 10)
	if e != 0 {
		t.Fatalf("edge id = %d, want 0", e)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("size = %d nodes %d edges, want 2,1", g.NumNodes(), g.NumEdges())
	}
	ed := g.Edge(e)
	if ed.U != a || ed.V != b || ed.Capacity != 10 || ed.Weight != 1 {
		t.Fatalf("edge = %+v", ed)
	}
	if g.Label(a) != "a" || g.Label(b) != "b" {
		t.Fatalf("labels = %q,%q", g.Label(a), g.Label(b))
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{ID: 0, U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	if !e.HasEndpoint(3) || !e.HasEndpoint(7) || e.HasEndpoint(5) {
		t.Fatal("HasEndpoint wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestSelfLoopPanics(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g.AddEdge(a, a, 1)
}

func TestBadNodePanics(t *testing.T) {
	g := New()
	g.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node did not panic")
		}
	}()
	g.AddEdge(0, 5, 1)
}

func TestNeighborsAndDegree(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, 1)
	g.AddEdge(a, c, 1)
	g.AddEdge(a, b, 1) // parallel edge
	if g.Degree(a) != 3 {
		t.Fatalf("deg(a) = %d, want 3", g.Degree(a))
	}
	nb := g.Neighbors(a)
	if len(nb) != 2 || nb[0] != b || nb[1] != c {
		t.Fatalf("neighbors = %v, want [b c]", nb)
	}
}

func TestEdgeBetween(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddWeightedEdge(a, b, 1, 5)
	cheap := g.AddWeightedEdge(a, b, 1, 2)
	e, ok := g.EdgeBetween(a, b)
	if !ok || e.ID != cheap {
		t.Fatalf("EdgeBetween = %+v ok=%v, want edge %d", e, ok, cheap)
	}
	c := g.AddNode("c")
	if _, ok := g.EdgeBetween(a, c); ok {
		t.Fatal("EdgeBetween found a non-existent edge")
	}
}

func TestConnectedReachable(t *testing.T) {
	g := line(4)
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	g.AddNode("isolated")
	if g.Connected() {
		t.Fatal("graph with isolated node should not be connected")
	}
	if got := len(g.Reachable(0)); got != 4 {
		t.Fatalf("reachable from 0 = %d nodes, want 4", got)
	}
	if New().Connected() != true {
		t.Fatal("empty graph should be connected")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := line(5)
	p, ok := g.ShortestPath(0, 4)
	if !ok {
		t.Fatal("no path on a line graph")
	}
	if p.Len() != 4 || p.Cost != 4 {
		t.Fatalf("path len=%d cost=%g, want 4,4", p.Len(), p.Cost)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if p.Src() != 0 || p.Dst() != 4 {
		t.Fatalf("endpoints = %d,%d", p.Src(), p.Dst())
	}
}

func TestShortestPathPrefersLightEdges(t *testing.T) {
	// Triangle where the direct edge is heavier than the detour.
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddWeightedEdge(a, c, 1, 10)
	g.AddWeightedEdge(a, b, 1, 1)
	g.AddWeightedEdge(b, c, 1, 1)
	p, ok := g.ShortestPath(a, c)
	if !ok || p.Cost != 2 || p.Len() != 2 {
		t.Fatalf("path = %+v ok=%v, want 2-hop cost 2", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if _, ok := g.ShortestPath(a, b); ok {
		t.Fatal("found a path in a disconnected graph")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := line(2)
	p, ok := g.ShortestPath(0, 0)
	if !ok || p.Len() != 0 || p.Cost != 0 {
		t.Fatalf("self path = %+v ok=%v", p, ok)
	}
}

func TestShortestPathsAllDest(t *testing.T) {
	g := line(4)
	tr := g.ShortestPathTree(0)
	for d := NodeID(0); d < 4; d++ {
		p, ok := tr.Path(d)
		if !ok {
			t.Fatalf("no path to %d", d)
		}
		if p.Src() != tr.Src() || p.Dst() != d {
			t.Fatalf("path to %d runs %d→%d", d, p.Src(), p.Dst())
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("invalid path to %d: %v", d, err)
		}
		if p.Cost != tr.Dist(d) || !equalEdges(tr.AppendEdges(nil, d), p.Edges) {
			t.Fatalf("path to %d = %+v, tree has cost %g edges %v", d, p, tr.Dist(d), tr.AppendEdges(nil, d))
		}
		if d > 0 && (tr.Via(d) != p.Edges[p.Len()-1] || tr.Parent(d) != p.Nodes[p.Len()-1]) {
			t.Fatalf("tree enters %d by edge %d from %d, path %+v", d, tr.Via(d), tr.Parent(d), p)
		}
	}
	if tr.Via(0) != -1 || tr.Parent(0) != -1 {
		t.Fatalf("source has via %d parent %d, want -1", tr.Via(0), tr.Parent(0))
	}
	g.AddNode("isolated")
	tr = g.ShortestPathTree(0)
	if _, ok := tr.Path(4); ok || tr.Reachable(4) || tr.Parent(4) != -1 {
		t.Fatal("isolated node reachable")
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	// Two parallel unit-weight 2-hop routes a-b-d and a-c-d; the route
	// through lower edge IDs must always win.
	build := func() *Graph {
		g := New()
		a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
		g.AddEdge(a, b, 1)
		g.AddEdge(b, d, 1)
		g.AddEdge(a, c, 1)
		g.AddEdge(c, d, 1)
		return g
	}
	g := build()
	p1, _ := g.ShortestPath(0, 3)
	for i := 0; i < 10; i++ {
		p2, _ := build().ShortestPath(0, 3)
		if !equalEdges(p1.Edges, p2.Edges) {
			t.Fatalf("tie-break not deterministic: %v vs %v", p1.Edges, p2.Edges)
		}
	}
}

func TestKShortestPaths(t *testing.T) {
	// Diamond: two disjoint 2-hop routes plus one 3-hop route.
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddEdge(a, b, 1)
	g.AddEdge(b, d, 1)
	g.AddEdge(a, c, 1)
	g.AddWeightedEdge(c, d, 1, 2)
	g.AddWeightedEdge(b, c, 1, 1)
	ps := g.KShortestPaths(a, d, 5)
	if len(ps) < 2 {
		t.Fatalf("got %d paths, want >= 2", len(ps))
	}
	for i, p := range ps {
		if err := p.Validate(g); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		if p.Src() != a || p.Dst() != d {
			t.Fatalf("path %d endpoints %d-%d", i, p.Src(), p.Dst())
		}
		if i > 0 && ps[i-1].Cost > p.Cost+1e-9 {
			t.Fatalf("paths not sorted by cost: %g before %g", ps[i-1].Cost, p.Cost)
		}
	}
	// All returned paths must be distinct.
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if equalEdges(ps[i].Edges, ps[j].Edges) {
				t.Fatalf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	g := New()
	nodes := make([]NodeID, 5)
	for i := range nodes {
		nodes[i] = g.AddNode("n")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddWeightedEdge(nodes[i], nodes[j], 1, 1+rng.Float64())
		}
	}
	ps := g.KShortestPaths(nodes[0], nodes[4], 10)
	for _, p := range ps {
		seen := make(map[NodeID]bool)
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("path revisits node %d: %v", n, p.Nodes)
			}
			seen[n] = true
		}
	}
}

func TestKShortestPathsEdgeCases(t *testing.T) {
	g := line(3)
	if ps := g.KShortestPaths(0, 2, 0); ps != nil {
		t.Fatal("k=0 should return nil")
	}
	// Line graph has exactly one loopless path.
	if ps := g.KShortestPaths(0, 2, 5); len(ps) != 1 {
		t.Fatalf("line graph: got %d paths, want 1", len(ps))
	}
	g2 := New()
	g2.AddNode("a")
	g2.AddNode("b")
	if ps := g2.KShortestPaths(0, 1, 3); ps != nil {
		t.Fatal("disconnected: want nil")
	}
}

func TestPathUses(t *testing.T) {
	g := line(4)
	p, _ := g.ShortestPath(0, 3)
	for _, e := range p.Edges {
		if !p.Uses(e) {
			t.Fatalf("path should use edge %d", e)
		}
	}
	if p.Uses(EdgeID(99)) {
		t.Fatal("path claims to use a bogus edge")
	}
}

func TestPathValidateErrors(t *testing.T) {
	g := line(3)
	if err := (Path{}).Validate(g); err == nil {
		t.Fatal("empty path should be invalid")
	}
	bad := Path{Nodes: []NodeID{0, 2}, Edges: []EdgeID{0}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("edge/node mismatch should be invalid")
	}
	wrongCost := Path{Nodes: []NodeID{0, 1}, Edges: []EdgeID{0}, Cost: 42}
	if err := wrongCost.Validate(g); err == nil {
		t.Fatal("wrong cost should be invalid")
	}
}

func TestClone(t *testing.T) {
	g := line(3)
	c := g.Clone()
	c.AddNode("extra")
	c.AddEdge(0, 2, 1)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatal("Clone is not independent of the original")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New()
	a, b := g.AddNode("bb1"), g.AddNode("ar1")
	g.AddEdge(a, b, 10)
	var sb strings.Builder
	err := g.WriteDOT(&sb, DOTOptions{
		Name:      "pop",
		EdgeLabel: func(e Edge) string { return "l" },
		EdgeWidth: func(e Edge) float64 { return 2.5 },
		NodeShape: func(n NodeID) string { return "box" },
		Highlight: func(e Edge) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`graph "pop"`, `label="bb1"`, "shape=box", "penwidth=2.50", "color=red", "n0 -- n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTPlain(t *testing.T) {
	g := line(2)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `graph "G"`) {
		t.Errorf("default name missing:\n%s", sb.String())
	}
}
