// Package flow implements directed flow networks with real-valued
// capacities and costs: Dinic max-flow and successive-shortest-path
// min-cost flow with node potentials.
//
// The paper reduces Partial Passive Monitoring to Minimum Edge Cost Flow
// (§4.3, Theorem 2) and observes that the greedy heuristics correspond to
// a min-cost flow on the MECF graph with linear costs; it also notes that
// PPME*(x,h,k) — re-optimizing sampling rates with device placement
// frozen (§5.4) — "can be expressed as a minimum cost flow problem for
// which efficient polynomial time algorithms are available without the
// need of linear programming anymore". This package provides those
// polynomial algorithms.
package flow

import (
	"container/heap"
	"fmt"
	"math"
)

const eps = 1e-9

// Network is a directed flow network over nodes 0..n-1. Arcs are added
// with AddArc; parallel arcs and cycles are allowed.
type Network struct {
	n int
	// Arc storage in residual pairs: arc 2i is the forward arc, 2i+1 its
	// reverse. cap is the *residual* capacity during/after a run.
	to   []int
	head [][]int // head[v] = indices into to/cap/cost of arcs leaving v
	cap  []float64
	cost []float64
	orig []float64 // original capacity of forward arcs (by arc pair)
}

// Arc identifies an arc added with AddArc.
type Arc int

// NewNetwork returns a network with n nodes and no arcs.
func NewNetwork(n int) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("flow: non-positive node count %d", n))
	}
	return &Network{n: n, head: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (f *Network) NumNodes() int { return f.n }

// AddArc adds a directed arc from u to v with the given capacity and
// per-unit cost, returning its handle. Capacity may be math.Inf(1).
func (f *Network) AddArc(u, v int, capacity, cost float64) Arc {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		panic(fmt.Sprintf("flow: arc %d->%d out of range [0,%d)", u, v, f.n))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("flow: negative capacity %g", capacity))
	}
	id := len(f.to)
	f.to = append(f.to, v, u)
	f.cap = append(f.cap, capacity, 0)
	f.cost = append(f.cost, cost, -cost)
	f.head[u] = append(f.head[u], id)
	f.head[v] = append(f.head[v], id+1)
	f.orig = append(f.orig, capacity)
	return Arc(id / 2)
}

// Flow returns the flow currently carried by arc a (after a MaxFlow or
// MinCostFlow run).
func (f *Network) Flow(a Arc) float64 {
	i := int(a) * 2
	return f.cap[i+1] // reverse residual = pushed flow
}

// Reset zeroes all flow, restoring original capacities.
func (f *Network) Reset() {
	for i := range f.orig {
		f.cap[2*i] = f.orig[i]
		f.cap[2*i+1] = 0
	}
}

// MaxFlow runs Dinic's algorithm and returns the maximum s→t flow value.
// Arc flows are available through Flow afterwards.
func (f *Network) MaxFlow(s, t int) float64 {
	f.checkST(s, t)
	total := 0.0
	level := make([]int, f.n)
	iter := make([]int, f.n)
	for f.bfsLevel(s, t, level) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			pushed := f.dfsAugment(s, t, math.Inf(1), level, iter)
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total
}

func (f *Network) checkST(s, t int) {
	if s < 0 || s >= f.n || t < 0 || t >= f.n || s == t {
		panic(fmt.Sprintf("flow: bad source/sink %d,%d", s, t))
	}
}

func (f *Network) bfsLevel(s, t int, level []int) bool {
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range f.head[v] {
			if f.cap[id] > eps && level[f.to[id]] < 0 {
				level[f.to[id]] = level[v] + 1
				queue = append(queue, f.to[id])
			}
		}
	}
	return level[t] >= 0
}

func (f *Network) dfsAugment(v, t int, limit float64, level, iter []int) float64 {
	if v == t {
		return limit
	}
	for ; iter[v] < len(f.head[v]); iter[v]++ {
		id := f.head[v][iter[v]]
		w := f.to[id]
		if f.cap[id] <= eps || level[w] != level[v]+1 {
			continue
		}
		pushed := f.dfsAugment(w, t, math.Min(limit, f.cap[id]), level, iter)
		if pushed > eps {
			f.cap[id] -= pushed
			f.cap[id^1] += pushed
			return pushed
		}
	}
	return 0
}

// MinCostResult reports the outcome of MinCostFlow.
type MinCostResult struct {
	// Sent is the amount of flow actually routed (== requested amount
	// unless the network cannot carry it).
	Sent float64
	// Cost is the total cost of the routed flow.
	Cost float64
	// Full is true when the full requested amount was routed.
	Full bool
}

// MinCostFlow routes `amount` units from s to t at minimum total cost
// using successive shortest paths with Johnson potentials (Bellman–Ford
// initialization tolerates negative arc costs, as long as no negative
// cycle is reachable). Per-arc flows are available via Flow afterwards.
//
// If the network cannot carry the full amount, it routes as much as a
// max-flow allows and reports Full=false.
func (f *Network) MinCostFlow(s, t int, amount float64) MinCostResult {
	f.checkST(s, t)
	if amount < 0 {
		panic(fmt.Sprintf("flow: negative amount %g", amount))
	}
	pot := f.bellmanFord(s)
	res := MinCostResult{}
	dist := make([]float64, f.n)
	prevArc := make([]int, f.n)
	for res.Sent < amount-eps {
		if !f.dijkstraReduced(s, t, pot, dist, prevArc) {
			break // t unreachable in residual graph
		}
		// Update potentials.
		for v := 0; v < f.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the path.
		push := amount - res.Sent
		for v := t; v != s; {
			id := prevArc[v]
			if f.cap[id] < push {
				push = f.cap[id]
			}
			v = f.to[id^1]
		}
		for v := t; v != s; {
			id := prevArc[v]
			f.cap[id] -= push
			f.cap[id^1] += push
			res.Cost += push * f.cost[id]
			v = f.to[id^1]
		}
		res.Sent += push
	}
	res.Full = res.Sent >= amount-1e-6
	return res
}

// bellmanFord computes initial potentials (shortest distances by cost)
// from s over arcs with positive residual capacity. Unreachable nodes
// get potential 0; they can only become reachable later via paths whose
// reduced costs remain valid because every augmentation preserves
// eps-feasibility of the potentials we maintain.
func (f *Network) bellmanFord(s int) []float64 {
	dist := make([]float64, f.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	for round := 0; round < f.n; round++ {
		changed := false
		for v := 0; v < f.n; v++ {
			if math.IsInf(dist[v], 1) {
				continue
			}
			for _, id := range f.head[v] {
				if f.cap[id] <= eps {
					continue
				}
				w := f.to[id]
				nd := dist[v] + f.cost[id]
				if nd < dist[w]-eps {
					dist[w] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range dist {
		if math.IsInf(dist[i], 1) {
			dist[i] = 0
		}
	}
	return dist
}

type fpqItem struct {
	node int
	dist float64
}
type fpq []fpqItem

func (q fpq) Len() int            { return len(q) }
func (q fpq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q fpq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *fpq) Push(x interface{}) { *q = append(*q, x.(fpqItem)) }
func (q *fpq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstraReduced runs Dijkstra over reduced costs cost+pot[u]-pot[v] on
// the residual graph, filling dist and prevArc. It returns false when t
// is unreachable.
func (f *Network) dijkstraReduced(s, t int, pot, dist []float64, prevArc []int) bool {
	for i := range dist {
		dist[i] = math.Inf(1)
		prevArc[i] = -1
	}
	dist[s] = 0
	q := &fpq{{node: s}}
	done := make([]bool, f.n)
	for q.Len() > 0 {
		it := heap.Pop(q).(fpqItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, id := range f.head[v] {
			if f.cap[id] <= eps {
				continue
			}
			w := f.to[id]
			rc := f.cost[id] + pot[v] - pot[w]
			if rc < -1e-6 {
				// Potentials should keep reduced costs non-negative up
				// to round-off; clamp small violations.
				rc = 0
			}
			nd := dist[v] + rc
			if nd < dist[w]-eps {
				dist[w] = nd
				prevArc[w] = id
				heap.Push(q, fpqItem{node: w, dist: nd})
			}
		}
	}
	return !math.IsInf(dist[t], 1)
}
