package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomConnected builds a random connected graph with n nodes: a random
// spanning tree plus extra random edges.
func randomConnected(rng *rand.Rand, n, extra int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g.AddWeightedEdge(NodeID(i), NodeID(j), 1, 1+rng.Float64()*9)
	}
	for i := 0; i < extra; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		g.AddWeightedEdge(NodeID(u), NodeID(v), 1, 1+rng.Float64()*9)
	}
	return g
}

// Property: Dijkstra distances satisfy the triangle inequality over every
// edge, and every returned path validates.
func TestDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomConnected(rng, n, rng.Intn(2*n))
		src := NodeID(rng.Intn(n))
		tree := g.ShortestPathTree(src)
		dist := make([]float64, n)
		for d := range dist {
			p, ok := tree.Path(NodeID(d))
			if !ok {
				dist[d] = math.Inf(1)
				continue
			}
			dist[d] = p.Cost
			if err := p.Validate(g); err != nil {
				t.Logf("seed %d: invalid path: %v", seed, err)
				return false
			}
		}
		for _, e := range g.Edges() {
			if dist[e.V] > dist[e.U]+e.Weight+1e-9 || dist[e.U] > dist[e.V]+e.Weight+1e-9 {
				t.Logf("seed %d: triangle inequality violated on edge %d", seed, e.ID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the first path of KShortestPaths equals ShortestPath, costs
// are non-decreasing, and all paths are simple and valid.
func TestKShortestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := randomConnected(rng, n, n)
		src := NodeID(rng.Intn(n))
		dst := NodeID(rng.Intn(n))
		if src == dst {
			return true
		}
		sp, ok := g.ShortestPath(src, dst)
		if !ok {
			return true
		}
		ks := g.KShortestPaths(src, dst, 4)
		if len(ks) == 0 || math.Abs(ks[0].Cost-sp.Cost) > 1e-9 {
			t.Logf("seed %d: k-shortest first path cost mismatch", seed)
			return false
		}
		prev := 0.0
		for i, p := range ks {
			if err := p.Validate(g); err != nil {
				t.Logf("seed %d: path %d invalid: %v", seed, i, err)
				return false
			}
			if p.Cost < prev-1e-9 {
				t.Logf("seed %d: costs decrease at %d", seed, i)
				return false
			}
			prev = p.Cost
			seen := make(map[NodeID]bool)
			for _, nd := range p.Nodes {
				if seen[nd] {
					t.Logf("seed %d: path %d not simple", seed, i)
					return false
				}
				seen[nd] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reachable from any node of a randomConnected graph covers all
// nodes.
func TestReachableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomConnected(rng, n, 0)
		src := NodeID(rng.Intn(n))
		return len(g.Reachable(src)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refQueue and refDijkstra are Dijkstra on container/heap, as the
// package computed it before push and pop were specialised: the oracle
// for TestDijkstraMatchesContainerHeap.
type refQueue []pqItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refDijkstra(g *Graph, src NodeID, banned func(EdgeID) bool) (dist []float64, via []EdgeID) {
	n := g.NumNodes()
	dist = make([]float64, n)
	via = make([]EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[src] = 0
	q := &refQueue{{node: src, dist: 0}}
	done := make([]bool, n)
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, id := range g.adj[u] {
			if banned != nil && banned(id) {
				continue
			}
			e := g.edges[id]
			v := e.Other(u)
			nd := dist[u] + e.Weight
			if nd < dist[v]-1e-12 || (math.Abs(nd-dist[v]) <= 1e-12 && via[v] >= 0 && id < via[v]) {
				dist[v] = nd
				via[v] = id
				heap.Push(q, pqItem{node: v, dist: nd})
			}
		}
	}
	return dist, via
}

// Lock: the specialised heap pops in container/heap's order, so dist
// and via match the container/heap Dijkstra exactly on random
// multigraphs whose small integer weights force ties, with parallel
// edges, disconnected parts and banned edges.
func TestDijkstraMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		for i := rng.Intn(3 * n); i >= 0; i-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.AddWeightedEdge(u, v, 1, float64(1+rng.Intn(3)))
			}
		}
		var banned func(EdgeID) bool
		if seed%2 == 1 {
			ban := make([]bool, g.NumEdges())
			for i := range ban {
				ban[i] = rng.Intn(4) == 0
			}
			banned = func(id EdgeID) bool { return ban[id] }
		}
		src := NodeID(rng.Intn(n))
		dist, via := g.dijkstra(src, banned)
		wantDist, wantVia := refDijkstra(g, src, banned)
		if !reflect.DeepEqual(dist, wantDist) || !reflect.DeepEqual(via, wantVia) {
			t.Fatalf("seed %d: dist %v via %v, container/heap gives dist %v via %v", seed, dist, via, wantDist, wantVia)
		}
	}
}

// Lock: push and pop pop items in exactly container/heap's order,
// ties included, over random interleavings of pushes and pops.
func TestHeapPopOrderMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q []pqItem
		ref := &refQueue{}
		for op := 0; op < 200; op++ {
			if len(q) == 0 || rng.Intn(3) > 0 {
				it := pqItem{node: NodeID(op), dist: float64(rng.Intn(5))}
				q = push(q, it)
				heap.Push(ref, it)
				continue
			}
			var got pqItem
			got, q = pop(q)
			if want := heap.Pop(ref).(pqItem); got != want {
				t.Fatalf("seed %d op %d: popped %+v, container/heap pops %+v", seed, op, got, want)
			}
		}
	}
}
