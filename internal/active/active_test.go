package active

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topology"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 100)
	}
	return g
}

func allNodes(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestComputeProbesCoversAllEdges(t *testing.T) {
	g := pathGraph(5)
	ps, err := ComputeProbes(g, allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	if !ps.CoversAllEdges() {
		t.Fatal("probe set does not cover every link")
	}
	// A path graph is covered by the single end-to-end probe.
	if len(ps.Probes) != 1 {
		t.Fatalf("probes = %d, want 1 on a path graph", len(ps.Probes))
	}
	for _, p := range ps.Probes {
		if err := p.Path.Validate(g); err != nil {
			t.Fatal(err)
		}
		if p.Path.Src() != p.U || p.Path.Dst() != p.V {
			t.Fatal("probe endpoints inconsistent with its path")
		}
	}
}

func TestComputeProbesRestrictedCandidates(t *testing.T) {
	g := pathGraph(5)
	// Only the middle node may host beacons; probes still must cover
	// both sides.
	ps, err := ComputeProbes(g, []graph.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	if !ps.CoversAllEdges() {
		t.Fatal("restricted candidates: links uncovered")
	}
	for i, p := range ps.Probes {
		if p.U != 2 && p.V != 2 {
			t.Fatalf("probe %d has no candidate extremity", i)
		}
	}
}

func TestComputeProbesErrors(t *testing.T) {
	g := pathGraph(3)
	if _, err := ComputeProbes(g, nil); err == nil {
		t.Fatal("no candidates accepted")
	}
	if _, err := ComputeProbes(g, []graph.NodeID{0, 0}); err == nil {
		t.Fatal("duplicate candidates accepted")
	}
	for _, bad := range []graph.NodeID{3, 9999, -1} {
		if _, err := ComputeProbes(g, []graph.NodeID{0, bad}); err == nil {
			t.Fatalf("out-of-range candidate %d accepted", bad)
		}
	}
	// Disconnected component: link unreachable from the candidate.
	g2 := pathGraph(3)
	a := g2.AddNode("x")
	b := g2.AddNode("y")
	g2.AddEdge(a, b, 100)
	if _, err := ComputeProbes(g2, []graph.NodeID{0}); err == nil {
		t.Fatal("unreachable link not reported")
	}
}

func TestPlacementAlgorithmsOnStar(t *testing.T) {
	// Star: center 0, leaves 1..5. All shortest paths go through the
	// center; a single beacon at the center sends every probe.
	g := graph.New()
	c := g.AddNode("center")
	for i := 0; i < 5; i++ {
		l := g.AddNode("leaf")
		g.AddEdge(c, l, 100)
	}
	ps, err := ComputeProbes(g, allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := PlaceILP(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := ilp.Validate(ps); err != nil {
		t.Fatal(err)
	}
	greedy, err := PlaceGreedy(ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(ps); err != nil {
		t.Fatal(err)
	}
	thiran, err := PlaceThiran(ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := thiran.Validate(ps); err != nil {
		t.Fatal(err)
	}
	if !ilp.Exact {
		t.Fatal("ILP not exact")
	}
	if ilp.Devices() > greedy.Devices() || greedy.Devices() > thiran.Devices() {
		t.Fatalf("ordering violated: ilp %d, greedy %d, thiran %d",
			ilp.Devices(), greedy.Devices(), thiran.Devices())
	}
}

func TestProbeLoad(t *testing.T) {
	g := pathGraph(4)
	ps, err := ComputeProbes(g, allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceGreedy(ps)
	if err != nil {
		t.Fatal(err)
	}
	load := ProbeLoad(pl)
	total := 0
	for _, n := range load {
		total += n
	}
	if total != len(ps.Probes) {
		t.Fatalf("probe loads sum to %d, want %d", total, len(ps.Probes))
	}
}

// bruteBeacons enumerates candidate subsets for the true optimum.
func bruteBeacons(ps ProbeSet) int {
	n := len(ps.Candidates)
	best := math.MaxInt32
	for mask := 0; mask < 1<<n; mask++ {
		cnt := 0
		sel := make(map[graph.NodeID]bool)
		for i, c := range ps.Candidates {
			if mask&(1<<i) != 0 {
				sel[c] = true
				cnt++
			}
		}
		if cnt >= best {
			continue
		}
		ok := true
		for _, p := range ps.Probes {
			if !sel[p.U] && !sel[p.V] {
				ok = false
				break
			}
		}
		if ok {
			best = cnt
		}
	}
	return best
}

// popProbeSet builds a probe set on a small generated POP with the
// first `nb` routers as candidates (endpoints excluded, as the paper
// places beacons on routers).
func popProbeSet(t testing.TB, seed int64, routers, nb int) ProbeSet {
	cfg := topology.Config{Routers: routers, InterRouterLinks: routers * 2, Endpoints: 4, Seed: seed}
	pop := topology.Generate(cfg)
	var cands []graph.NodeID
	for n := 0; n < pop.G.NumNodes() && len(cands) < nb; n++ {
		if pop.IsRouter(graph.NodeID(n)) {
			cands = append(cands, graph.NodeID(n))
		}
	}
	ps, err := ComputeProbes(pop.G, cands)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// Property: ILP matches brute force and the algorithm ordering
// ILP ≤ greedy ≤ (feasible) holds on random POPs.
func TestILPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		routers := 5 + int(uint64(seed)%5)
		nb := 3 + int(uint64(seed/7)%uint64(routers-2))
		ps := popProbeSet(t, seed, routers, nb)
		want := bruteBeacons(ps)
		if want == math.MaxInt32 {
			return true // infeasible probe set (cannot happen by construction)
		}
		ilp, err := PlaceILP(context.Background(), ps)
		if err != nil {
			t.Logf("seed %d: ilp: %v", seed, err)
			return false
		}
		if ilp.Devices() != want {
			t.Logf("seed %d: ilp %d != brute %d", seed, ilp.Devices(), want)
			return false
		}
		greedy, err := PlaceGreedy(ps)
		if err != nil {
			t.Logf("seed %d: greedy: %v", seed, err)
			return false
		}
		thiran, err := PlaceThiran(ps)
		if err != nil {
			t.Logf("seed %d: thiran: %v", seed, err)
			return false
		}
		if err := ilp.Validate(ps); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := greedy.Validate(ps); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := thiran.Validate(ps); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return ilp.Devices() <= greedy.Devices() && ilp.Devices() <= thiran.Devices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: probe sets cover all edges on arbitrary connected POPs.
func TestComputeProbesProperty(t *testing.T) {
	f := func(seed int64) bool {
		routers := 4 + int(uint64(seed)%10)
		ps := popProbeSet(t, seed, routers, routers)
		if !ps.CoversAllEdges() {
			t.Logf("seed %d: uncovered edges", seed)
			return false
		}
		for _, p := range ps.Probes {
			if err := p.Path.Validate(ps.G); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementValidateErrors(t *testing.T) {
	g := pathGraph(3)
	ps, err := ComputeProbes(g, allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceILP(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	bad := pl
	bad.Beacons = []graph.NodeID{99}
	if err := bad.Validate(ps); err == nil {
		t.Fatal("non-candidate beacon accepted")
	}
	bad2 := pl
	bad2.Sender = nil
	if err := bad2.Validate(ps); err == nil {
		t.Fatal("missing senders accepted")
	}
}

func TestBalanceSendersNeverWorsens(t *testing.T) {
	ps := popProbeSet(t, 3, 10, 10)
	pl, err := PlaceILP(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := BalanceSenders(ps, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := bal.Validate(ps); err != nil {
		t.Fatal(err)
	}
	if MaxProbeLoad(bal) > MaxProbeLoad(pl) {
		t.Fatalf("balancing raised max load: %d -> %d", MaxProbeLoad(pl), MaxProbeLoad(bal))
	}
	// Same beacons, same total probes.
	if len(bal.Beacons) != len(pl.Beacons) {
		t.Fatal("balancing changed the beacon set")
	}
	tot := 0
	for _, l := range ProbeLoad(bal) {
		tot += l
	}
	if tot != len(ps.Probes) {
		t.Fatalf("probe total changed: %d vs %d", tot, len(ps.Probes))
	}
}

func TestBalanceSendersRejectsInvalid(t *testing.T) {
	ps := popProbeSet(t, 4, 8, 8)
	pl, err := PlaceGreedy(ps)
	if err != nil {
		t.Fatal(err)
	}
	bad := pl
	bad.Sender = nil
	if _, err := BalanceSenders(ps, bad); err == nil {
		t.Fatal("invalid placement accepted")
	}
}

// Property: balancing is stable (idempotent) and keeps validity.
func TestBalanceSendersProperty(t *testing.T) {
	f := func(seed int64) bool {
		routers := 5 + int(uint64(seed)%8)
		ps := popProbeSet(t, seed, routers, routers)
		pl, err := PlaceGreedy(ps)
		if err != nil {
			return false
		}
		b1, err := BalanceSenders(ps, pl)
		if err != nil {
			return false
		}
		b2, err := BalanceSenders(ps, b1)
		if err != nil {
			return false
		}
		return MaxProbeLoad(b1) <= MaxProbeLoad(pl) && MaxProbeLoad(b2) == MaxProbeLoad(b1) &&
			b1.Validate(ps) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
