// Package active implements §6 of the paper: active monitoring with
// beacons and probes.
//
// An active probing system has candidate beacon locations V_B ⊆ V. Each
// beacon sends probe packets along IP routes; a probe covers the links
// of its path, and the probe between ϕ_u and ϕ_v is the same whichever
// endpoint sends it. Following the two-phase approach of Nguyen &
// Thiran [15] that the paper improves: first compute an optimal set of
// probes Φ covering every link, then choose which candidate nodes
// actually become beacons so every probe of Φ has a beacon endpoint.
//
// The package provides the probe-set computation and the paper's three
// placement algorithms: the arbitrary-order greedy of [15]
// (PlaceThiran), the improved most-probes-first greedy the paper
// proposes (PlaceGreedy), and the exact 0–1 ILP of §6.1 (PlaceILP).
package active

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mip"
)

// Probe is a measurement path. U and V are its extremities; at least
// one of them must be a beacon for the probe to be sent (the probe
// U→V equals the probe V→U, §6.1).
type Probe struct {
	U, V graph.NodeID
	Path graph.Path
}

// ProbeSet is the probe collection Φ together with the graph it covers.
type ProbeSet struct {
	G      *graph.Graph
	Probes []Probe
	// Candidates is V_B, the nodes allowed to host beacons.
	Candidates []graph.NodeID
}

// CoversAllEdges reports whether every edge of the graph lies on at
// least one probe path.
func (ps ProbeSet) CoversAllEdges() bool {
	covered := make([]bool, ps.G.NumEdges())
	for _, p := range ps.Probes {
		for _, e := range p.Path.Edges {
			covered[e] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// ComputeProbes builds a small probe set covering every link, the
// first phase of [15] (the cited polynomial algorithm lives in that
// paper; we reconstruct it as a greedy link cover, which preserves the
// input the placement phase consumes — see DESIGN.md §4).
//
// Candidate probes are, for every candidate beacon u and every link
// e = (a,b): the shortest path u⇝a extended across e (probes follow IP
// routing to the near end of the link, then cross it). The greedy then
// keeps probes covering the most uncovered links. Every returned probe
// has an endpoint in V_B, so the subsequent placement is always
// feasible. An error is reported when some link is unreachable from
// every candidate.
func ComputeProbes(g *graph.Graph, candidates []graph.NodeID) (ProbeSet, error) {
	return ComputeProbesTrees(g, candidates, g.ShortestPathTree)
}

// ComputeProbesTrees is ComputeProbes with the shortest-path trees
// supplied by treeOf instead of computed inline. Sweep drivers that
// re-probe overlapping candidate sets on the same topology (the Figure
// 9–11 |V_B| sweeps re-draw candidates from one router pool per seed)
// pass a memoizing provider so each router's tree is computed once per
// seed instead of once per sweep point. The trees are only read, so a
// provider may serve the same tree to concurrent callers.
func ComputeProbesTrees(g *graph.Graph, candidates []graph.NodeID, treeOf func(graph.NodeID) *graph.Tree) (ProbeSet, error) {
	if len(candidates) == 0 {
		return ProbeSet{}, fmt.Errorf("active: no candidate beacons")
	}
	seen := make([]bool, g.NumNodes())
	for _, c := range candidates {
		if c < 0 || int(c) >= len(seen) {
			return ProbeSet{}, fmt.Errorf("active: candidate %d out of range [0,%d)", c, len(seen))
		}
		if seen[c] {
			return ProbeSet{}, fmt.Errorf("active: duplicate candidate %d", c)
		}
		seen[c] = true
	}
	trees := make([]*graph.Tree, len(candidates))
	for i, u := range candidates {
		trees[i] = treeOf(u)
	}

	// Greedy link cover in two passes. The first offers the probes
	// between beacon pairs (both extremities in V_B): the probes of
	// [15] run between measurement points, and they are what gives the
	// placement phase freedom (either extremity can be the sender).
	lc := newLinkCover(g, trees)
	defer lc.release()
	for i := range candidates {
		for _, v := range candidates[i+1:] {
			if trees[i].Reachable(v) {
				lc.add(int32(i), v, -1)
			}
		}
	}
	lc.greedy()
	// The second pass offers extend-across probes for the links no
	// chosen pair path crosses. It is needed whenever a link lies on no
	// shortest path between two candidates: a lone candidate, a sparse
	// V_B, and above all an endpoint's access link, which no router-pair
	// path crosses, so on the paper's POPs it runs at every sweep point.
	// Candidates whose links are all covered are dropped before the
	// greedy. That cannot change its choice: gains only fall, so a
	// zero-gain candidate is never picked, and dropping it keeps the
	// order of the rest, so the lowest-index argmax chooses exactly as
	// it would over the full list.
	if lc.remaining > 0 {
		lc.arena, lc.cands = lc.arena[:0], lc.cands[:0]
		edges := g.Edges()
		for i := range trees {
			clear(lc.marks)
			for _, e := range edges {
				lc.addAcross(int32(i), e)
			}
		}
		lc.greedy()
	}
	if lc.remaining > 0 {
		return ProbeSet{}, fmt.Errorf("active: %d links unreachable from any candidate beacon", lc.remaining)
	}
	var probes []Probe
	for _, cp := range lc.chosen {
		probes = append(probes, lc.probe(cp))
	}
	return ProbeSet{G: g, Probes: probes, Candidates: append([]graph.NodeID(nil), candidates...)}, nil
}

// candProbe is a candidate probe: the path from trees[tree]'s source
// to t, extended across edge ext when ext >= 0. Its edge sequence is
// arena[off:end].
type candProbe struct {
	tree     int32
	t        graph.NodeID
	ext      graph.EdgeID
	off, end int32
}

// linkCover is the greedy link cover. The candidate probes of a pass
// keep their edge sequences in one arena, and only the probes the
// greedy chooses ever become graph.Paths.
type linkCover struct {
	g         *graph.Graph
	trees     []*graph.Tree
	covered   []bool
	remaining int
	arena     []graph.EdgeID
	cands     []candProbe
	chosen    []candProbe
	// marks memoizes dirty for the current tree: 0 unknown, 1 clean,
	// 2 dirty.
	marks []int8
	// Buffers of greedy, kept for reuse.
	gain   []int32
	onEdge [][]int32
}

// coverPool recycles linkCovers, whose buffers are the bulk of a call's
// allocation, across calls.
var coverPool = sync.Pool{New: func() any { return new(linkCover) }}

func newLinkCover(g *graph.Graph, trees []*graph.Tree) *linkCover {
	lc := coverPool.Get().(*linkCover)
	lc.g, lc.trees, lc.remaining = g, trees, g.NumEdges()
	lc.covered = zeroed(lc.covered, g.NumEdges())
	lc.marks = zeroed(lc.marks, g.NumNodes())
	lc.arena, lc.cands, lc.chosen = lc.arena[:0], lc.cands[:0], lc.chosen[:0]
	return lc
}

// release returns lc to the pool without its references to the graph.
func (lc *linkCover) release() {
	lc.g, lc.trees = nil, nil
	coverPool.Put(lc)
}

// zeroed returns s resized to n zero values, reusing its array.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func (lc *linkCover) seq(cp candProbe) []graph.EdgeID { return lc.arena[cp.off:cp.end] }

// probe materializes cp as a Probe with its own Path.
func (lc *linkCover) probe(cp candProbe) Probe {
	tree := lc.trees[cp.tree]
	p, _ := tree.Path(cp.t)
	v := cp.t
	if cp.ext >= 0 {
		e := lc.g.Edge(cp.ext)
		v = e.Other(cp.t)
		p.Nodes = append(p.Nodes, v)
		p.Edges = append(p.Edges, cp.ext)
		p.Cost += e.Weight
	}
	return Probe{U: tree.Src(), V: v, Path: p}
}

// add offers the probe along trees[tree] to t, extended across ext
// when ext >= 0, unless it crosses no uncovered link.
func (lc *linkCover) add(tree int32, t graph.NodeID, ext graph.EdgeID) {
	off := len(lc.arena)
	lc.arena = lc.trees[tree].AppendEdges(lc.arena, t)
	if ext >= 0 {
		lc.arena = append(lc.arena, ext)
	}
	for _, e := range lc.arena[off:] {
		if !lc.covered[e] {
			lc.cands = append(lc.cands, candProbe{tree: tree, t: t, ext: ext, off: int32(off), end: int32(len(lc.arena))})
			return
		}
	}
	lc.arena = lc.arena[:off]
}

// dirty reports whether the path to v in tr, the current tree, crosses
// an uncovered link.
func (lc *linkCover) dirty(tr *graph.Tree, v graph.NodeID) bool {
	if lc.marks[v] == 0 {
		lc.marks[v] = 1
		if v != tr.Src() && (!lc.covered[tr.Via(v)] || lc.dirty(tr, tr.Parent(v))) {
			lc.marks[v] = 2
		}
	}
	return lc.marks[v] == 2
}

// addAcross offers the probe along trees[tree] that crosses edge e at
// its far end: the shortest path to the nearer endpoint of e plus e
// itself, or the shortest path to an endpoint when that already ends
// with e. The extension is skipped when it would revisit a node.
func (lc *linkCover) addAcross(tree int32, e graph.Edge) {
	tr := lc.trees[tree]
	if !tr.Reachable(e.U) {
		return // e.V is then unreachable too
	}
	if lc.covered[e.ID] && !lc.dirty(tr, e.U) && !lc.dirty(tr, e.V) {
		return // every form of the probe crosses covered links only
	}
	near, far := e.U, e.V
	if tr.Dist(near) > tr.Dist(far) {
		near, far = far, near
	}
	switch {
	case tr.Via(e.V) == e.ID:
		lc.add(tree, e.V, -1)
	case tr.Via(e.U) == e.ID:
		lc.add(tree, e.U, -1)
	case !onPath(tr, near, far):
		lc.add(tree, near, e.ID)
	case !onPath(tr, far, near):
		lc.add(tree, far, e.ID)
	}
}

// onPath reports whether the tree's path to dst visits n.
func onPath(tree *graph.Tree, dst, n graph.NodeID) bool {
	for v := dst; v >= 0; v = tree.Parent(v) {
		if v == n {
			return true
		}
	}
	return false
}

// greedy repeatedly chooses the lowest-index candidate covering the
// most uncovered links, until every link is covered or no candidate
// covers another. Gains are maintained incrementally (edge → candidates
// index, decremented as edges become covered) instead of rescanning
// every candidate each round. Candidates repeating an earlier one's
// edge sequence need no removal: they have its gain in every round and
// a higher index, so the argmax never picks them.
func (lc *linkCover) greedy() {
	gain := zeroed(lc.gain, len(lc.cands))
	onEdge := slices.Grow(lc.onEdge[:0], len(lc.covered))[:len(lc.covered)]
	for e := range onEdge {
		onEdge[e] = onEdge[e][:0]
	}
	lc.gain, lc.onEdge = gain, onEdge
	for i, cp := range lc.cands {
		for _, e := range lc.seq(cp) {
			if !lc.covered[e] {
				gain[i]++
				onEdge[e] = append(onEdge[e], int32(i))
			}
		}
	}
	top := int32(math.MaxInt32) // the last round's best gain
	for lc.remaining > 0 {
		best, bestGain := -1, int32(0)
		for i, gn := range gain {
			if gn > bestGain {
				best, bestGain = i, gn
				if gn == top {
					break // gains never rise, so no later candidate beats it
				}
			}
		}
		if best < 0 {
			return // this pass can add nothing more
		}
		top = bestGain
		for _, e := range lc.seq(lc.cands[best]) {
			if !lc.covered[e] {
				lc.covered[e] = true
				lc.remaining--
				for _, i := range onEdge[e] {
					gain[i]--
				}
			}
		}
		lc.chosen = append(lc.chosen, lc.cands[best])
	}
}

// Placement is the outcome of a beacon-placement algorithm.
type Placement struct {
	// Beacons lists the selected beacon nodes, sorted.
	Beacons []graph.NodeID
	// Sender assigns every probe (by index into the ProbeSet) the
	// beacon that emits it.
	Sender []graph.NodeID
	// Exact is true when the placement is provably optimal; a canceled
	// exact solve reports its incumbent with Exact = false.
	Exact  bool
	Method string
	// Stats carries the solver effort counters (zero for the greedy
	// placements).
	Stats core.SolveStats
}

// Devices returns the number of beacons (the y-axis of Figures 9–11).
func (p Placement) Devices() int { return len(p.Beacons) }

// Validate checks that every probe has its sender among the beacons and
// at one of its extremities, and that beacons are candidates.
func (p Placement) Validate(ps ProbeSet) error {
	isBeacon := make(map[graph.NodeID]bool, len(p.Beacons))
	isCand := make(map[graph.NodeID]bool, len(ps.Candidates))
	for _, c := range ps.Candidates {
		isCand[c] = true
	}
	for _, b := range p.Beacons {
		if !isCand[b] {
			return fmt.Errorf("active: beacon %d is not a candidate", b)
		}
		isBeacon[b] = true
	}
	if len(p.Sender) != len(ps.Probes) {
		return fmt.Errorf("active: %d senders for %d probes", len(p.Sender), len(ps.Probes))
	}
	for i, pr := range ps.Probes {
		s := p.Sender[i]
		if !isBeacon[s] {
			return fmt.Errorf("active: probe %d sent by non-beacon %d", i, s)
		}
		if s != pr.U && s != pr.V {
			return fmt.Errorf("active: probe %d sender %d is not an extremity", i, s)
		}
	}
	return nil
}

// sendable returns, per candidate, the probe indices it could send.
func sendable(ps ProbeSet) map[graph.NodeID][]int {
	isCand := make(map[graph.NodeID]bool, len(ps.Candidates))
	for _, c := range ps.Candidates {
		isCand[c] = true
	}
	out := make(map[graph.NodeID][]int, len(ps.Candidates))
	for i, p := range ps.Probes {
		if isCand[p.U] {
			out[p.U] = append(out[p.U], i)
		}
		if p.V != p.U && isCand[p.V] {
			out[p.V] = append(out[p.V], i)
		}
	}
	return out
}

func finishPlacement(ps ProbeSet, beacons map[graph.NodeID]bool, exact bool, method string) (Placement, error) {
	pl := Placement{Exact: exact, Method: method}
	for b := range beacons {
		pl.Beacons = append(pl.Beacons, b)
	}
	sort.Slice(pl.Beacons, func(i, j int) bool { return pl.Beacons[i] < pl.Beacons[j] })
	pl.Sender = make([]graph.NodeID, len(ps.Probes))
	for i, p := range ps.Probes {
		switch {
		case beacons[p.U]:
			pl.Sender[i] = p.U
		case beacons[p.V]:
			pl.Sender[i] = p.V
		default:
			return Placement{}, fmt.Errorf("active: %s: probe %d has no beacon endpoint", method, i)
		}
	}
	return pl, nil
}

// PlaceThiran is the placement heuristic of [15] as the paper describes
// it: "they first select a beacon, remove the set of probes that can be
// sent with this beacon, and so on" — candidates are taken in arbitrary
// (index) order, without looking at how many probes each can send.
func PlaceThiran(ps ProbeSet) (Placement, error) {
	can := sendable(ps)
	unsent := len(ps.Probes)
	covered := make([]bool, len(ps.Probes))
	beacons := make(map[graph.NodeID]bool)
	order := append([]graph.NodeID(nil), ps.Candidates...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, c := range order {
		if unsent == 0 {
			break
		}
		gain := 0
		for _, i := range can[c] {
			if !covered[i] {
				gain++
			}
		}
		if gain == 0 {
			continue
		}
		beacons[c] = true
		for _, i := range can[c] {
			if !covered[i] {
				covered[i] = true
				unsent--
			}
		}
	}
	if unsent > 0 {
		return Placement{}, fmt.Errorf("active: thiran: %d probes unassignable", unsent)
	}
	return finishPlacement(ps, beacons, false, "thiran")
}

// PlaceGreedy is the paper's improved greedy: always select next the
// candidate that can send the greatest number of still-unsent probes.
func PlaceGreedy(ps ProbeSet) (Placement, error) {
	can := sendable(ps)
	unsent := len(ps.Probes)
	covered := make([]bool, len(ps.Probes))
	beacons := make(map[graph.NodeID]bool)
	for unsent > 0 {
		var best graph.NodeID = -1
		bestGain := 0
		for _, c := range ps.Candidates {
			if beacons[c] {
				continue
			}
			gain := 0
			for _, i := range can[c] {
				if !covered[i] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && (best < 0 || c < best)) {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			return Placement{}, fmt.Errorf("active: greedy: %d probes unassignable", unsent)
		}
		beacons[best] = true
		for _, i := range can[best] {
			if !covered[i] {
				covered[i] = true
				unsent--
			}
		}
	}
	return finishPlacement(ps, beacons, false, "greedy")
}

// PlaceILP solves the paper's 0–1 integer program (§6.1) exactly:
//
//	min Σ y_i   s.t.  y_i = 0 ∀i ∉ V_B,  y_{ϕu} + y_{ϕv} ≥ 1 ∀ϕ ∈ Φ
//
// It is a vertex cover restricted to the candidate set, solved with the
// branch-and-bound of internal/mip (CPLEX in the paper). Cancelling ctx
// mid-solve returns the greedy-warm-started incumbent with Exact =
// false.
func PlaceILP(ctx context.Context, ps ProbeSet) (Placement, error) {
	return PlaceILPOpts(ctx, ps, ILPOptions{})
}

// ILPOptions tunes PlaceILPOpts.
type ILPOptions struct {
	// MaxNodes caps branch-and-bound nodes (0 = solver default).
	MaxNodes int
	// Gap is the absolute optimality gap for pruning (0 = default).
	Gap float64
	// RelGap is the relative optimality gap (0 = off); see mip.Options.
	RelGap float64
}

// PlaceILPOpts is PlaceILP with explicit branch-and-bound knobs.
func PlaceILPOpts(ctx context.Context, ps ProbeSet, opts ILPOptions) (Placement, error) {
	p := mip.NewProblem(lp.Minimize)
	ys := make(map[graph.NodeID]lp.Var, ps.G.NumNodes())
	isCand := make(map[graph.NodeID]bool, len(ps.Candidates))
	for _, c := range ps.Candidates {
		isCand[c] = true
	}
	// Only variables that appear in constraints are materialized;
	// non-candidate extremities are the fixed-to-zero y_i of the paper.
	varOf := func(n graph.NodeID) (lp.Var, bool) {
		if !isCand[n] {
			return 0, false
		}
		v, ok := ys[n]
		if !ok {
			v = p.AddBinaryVariable(fmt.Sprintf("y%d", n), 1)
			ys[n] = v
		}
		return v, true
	}
	for i, pr := range ps.Probes {
		var terms []lp.Term
		if v, ok := varOf(pr.U); ok {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		if pr.V != pr.U {
			if v, ok := varOf(pr.V); ok {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
		}
		if len(terms) == 0 {
			return Placement{}, fmt.Errorf("active: ilp: probe %d has no candidate extremity", i)
		}
		p.AddConstraint(lp.GE, 1, terms...)
	}
	if len(ys) == 0 {
		// No probes at all: nothing to place.
		return finishPlacement(ps, map[graph.NodeID]bool{}, true, "ilp")
	}
	// Warm start from the greedy placement.
	mo := mip.Options{MaxNodes: opts.MaxNodes, Gap: opts.Gap, RelGap: opts.RelGap}
	if gr, err := PlaceGreedy(ps); err == nil {
		inc := make([]float64, p.NumVariables())
		for _, b := range gr.Beacons {
			if v, ok := ys[b]; ok {
				inc[v] = 1
			}
		}
		mo.Incumbent = inc
	}
	p.SetOptions(mo)
	sol, err := p.SolveContext(ctx)
	if err != nil {
		return Placement{}, err
	}
	exact := true
	switch sol.Status {
	case lp.Optimal:
	case lp.Canceled, lp.IterLimit:
		if sol.X == nil {
			return Placement{}, fmt.Errorf("active: ilp: solver status %v and no incumbent", sol.Status)
		}
		exact = false
	default:
		return Placement{}, fmt.Errorf("active: ilp: solver status %v", sol.Status)
	}
	beacons := make(map[graph.NodeID]bool)
	for n, v := range ys {
		if sol.Value(v) > 0.5 {
			beacons[n] = true
		}
	}
	pl, err := finishPlacement(ps, beacons, exact, "ilp")
	if err != nil {
		return Placement{}, err
	}
	pl.Stats = sol.SolveStats
	return pl, nil
}

// ProbeLoad returns, per beacon, how many probes it sends under the
// placement — the message-overhead view the paper's objective of
// "optimizing both the number of devices and the number of generated
// messages" cares about.
func ProbeLoad(pl Placement) map[graph.NodeID]int {
	out := make(map[graph.NodeID]int, len(pl.Beacons))
	for _, b := range pl.Beacons {
		out[b] = 0
	}
	for _, s := range pl.Sender {
		out[s]++
	}
	return out
}

// BalanceSenders reassigns probes among the placement's beacons to
// minimize the maximum per-beacon probe count (the total message count
// is fixed at |Φ|, so balancing the sending load is the remaining §6
// overhead lever). Probes with both extremities on beacons are the
// degrees of freedom; the assignment is an exchange argument: repeatedly
// move a flexible probe from the most loaded beacon to its other
// extremity while that strictly lowers the maximum.
func BalanceSenders(ps ProbeSet, pl Placement) (Placement, error) {
	if err := pl.Validate(ps); err != nil {
		return Placement{}, err
	}
	out := pl
	out.Sender = append([]graph.NodeID(nil), pl.Sender...)
	isBeacon := make(map[graph.NodeID]bool, len(pl.Beacons))
	for _, b := range pl.Beacons {
		isBeacon[b] = true
	}
	load := ProbeLoad(out)
	for {
		moved := false
		// Find the currently most loaded beacon.
		var top graph.NodeID = -1
		for b, l := range load {
			if top < 0 || l > load[top] || (l == load[top] && b < top) {
				top = b
			}
		}
		if top < 0 {
			break
		}
		for i, pr := range ps.Probes {
			if out.Sender[i] != top {
				continue
			}
			other := pr.U
			if other == top {
				other = pr.V
			}
			if other == top || !isBeacon[other] {
				continue
			}
			if load[other]+1 < load[top] {
				out.Sender[i] = other
				load[top]--
				load[other]++
				moved = true
				break
			}
		}
		if !moved {
			break
		}
	}
	return out, nil
}

// MaxProbeLoad returns the largest per-beacon probe count.
func MaxProbeLoad(pl Placement) int {
	max := 0
	for _, l := range ProbeLoad(pl) {
		if l > max {
			max = l
		}
	}
	return max
}
