package cover

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// forceParallelPhases drops the serial burn-in budget to one node so
// every search reaches the frontier expansion and the subtree pool,
// restoring the production budget when the test ends.
func forceParallelPhases(t *testing.T) {
	t.Helper()
	old := burnInNodes
	burnInNodes = 1
	t.Cleanup(func() { burnInNodes = old })
}

// randomWeighted draws a random weighted partial-cover instance small
// enough for brute force but with real overlap structure.
func randomWeighted(seed int64) (Instance, float64) {
	rng := rand.New(rand.NewSource(seed))
	ne := 20 + rng.Intn(40)
	ns := 8 + rng.Intn(14)
	in := Instance{NumElements: ne, Weights: make([]float64, ne), Sets: make([][]int, ns)}
	for e := range in.Weights {
		in.Weights[e] = 1 + rng.Float64()*9
	}
	for si := range in.Sets {
		k := 1 + rng.Intn(6)
		for j := 0; j < k; j++ {
			in.Sets[si] = append(in.Sets[si], rng.Intn(ne))
		}
	}
	frac := 0.5 + rng.Float64()*0.5
	return in, frac * in.TotalWeight()
}

// randomMixedCover draws a larger instance than randomWeighted, with
// small integer weights (so many covers tie on size) and one seed in
// four asking for a full cover.
func randomMixedCover(seed int64) (Instance, float64) {
	rng := rand.New(rand.NewSource(seed))
	ne := 30 + rng.Intn(80)
	ns := 15 + rng.Intn(30)
	in := Instance{NumElements: ne, Weights: make([]float64, ne), Sets: make([][]int, ns)}
	for e := range in.Weights {
		in.Weights[e] = 1 + float64(rng.Intn(9))
	}
	for si := range in.Sets {
		k := 2 + rng.Intn(10)
		for j := 0; j < k; j++ {
			in.Sets[si] = append(in.Sets[si], rng.Intn(ne))
		}
	}
	frac := 0.6 + rng.Float64()*0.4
	if rng.Intn(4) == 0 {
		frac = 1
	}
	return in, frac * in.TotalWeight()
}

// sameResult compares the deterministic fields of two Results. Nodes,
// Steals and DominancePrunes are deliberately NOT compared: with
// Workers > 1 they depend on how early the shared incumbent aborted
// hopeless subtrees, which is schedule noise by design.
func sameResult(t *testing.T, tag string, a, b Result) {
	t.Helper()
	if a.Feasible != b.Feasible || a.Exact != b.Exact {
		t.Fatalf("%s: flags differ: feasible %v vs %v, exact %v vs %v",
			tag, a.Feasible, b.Feasible, a.Exact, b.Exact)
	}
	if a.Covered != b.Covered {
		t.Fatalf("%s: covered weight differs: %v vs %v", tag, a.Covered, b.Covered)
	}
	if len(a.Chosen) != len(b.Chosen) {
		t.Fatalf("%s: cover size differs: %d vs %d", tag, len(a.Chosen), len(b.Chosen))
	}
	for i := range a.Chosen {
		if a.Chosen[i] != b.Chosen[i] {
			t.Fatalf("%s: chosen sets differ at %d: %v vs %v", tag, i, a.Chosen, b.Chosen)
		}
	}
}

// TestParallelByteIdentity is the determinism oracle of the parallel
// branch-and-bound: for every instance of the random family, the
// Workers=1 serial search and the Workers∈{2,8} parallel searches must
// return byte-identical covers — same sets in the same order, same
// flags — both with an ample node budget and with a small budget that
// forces the capped path through the static per-task budget split.
func TestParallelByteIdentity(t *testing.T) {
	forceParallelPhases(t)
	tasks, capped := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		in, target := randomWeighted(seed)
		for _, maxNodes := range []int{0, 900} {
			serial := Exact(context.Background(), in, target, ExactOptions{MaxNodes: maxNodes, Workers: 1})
			for _, w := range []int{2, 8} {
				par := Exact(context.Background(), in, target, ExactOptions{MaxNodes: maxNodes, Workers: w})
				sameResult(t, tagOf(seed, maxNodes, w), serial, par)
				tasks += par.SubtreeTasks
				if !par.Exact && par.Feasible {
					capped++
				}
			}
		}
	}
	// The oracle is vacuous unless the family actually reaches the
	// parallel dispatch and the budget-capped path.
	if tasks == 0 {
		t.Fatal("no instance dispatched subtree tasks — the parallel phase never ran")
	}
	if capped == 0 {
		t.Fatal("no instance capped — the static per-task budget split never engaged")
	}
}

// TestParallelPhasesReturnSerialSearchCover: with the burn-in cut to
// one node, so that every search runs the frontier walk and the
// subtree tasks, Exact must return the cover of the plain serial
// search (a burn-in that never ends): the same sets in the same order
// and the same Exact flag, at one worker and at eight. Seeds 956 to
// 3315 are the ones among the family's first 4,000 where skipping the
// reconstruction phase changes the returned cover: the frontier walk
// accepts a shallow cover of optimum size before an earlier subtree
// task, which holds a different one, runs.
func TestParallelPhasesReturnSerialSearchCover(t *testing.T) {
	old := burnInNodes
	t.Cleanup(func() { burnInNodes = old })
	seeds := []int64{956, 1149, 1353, 1562, 1577, 2528, 3235, 3315}
	for seed := int64(0); seed < 200; seed++ {
		seeds = append(seeds, seed)
	}
	ctx := context.Background()
	tasks := 0
	for _, seed := range seeds {
		in, target := randomMixedCover(seed)
		burnInNodes = 1 << 30
		plain := Exact(ctx, in, target, ExactOptions{Workers: 1})
		burnInNodes = 1
		for _, w := range []int{1, 8} {
			phased := Exact(ctx, in, target, ExactOptions{Workers: w})
			sameResult(t, tagOf(seed, 0, w), plain, phased)
			tasks += phased.SubtreeTasks
		}
	}
	// Vacuous unless some search got past the frontier walk.
	if tasks == 0 {
		t.Fatal("no instance dispatched subtree tasks — the parallel phase never ran")
	}
}

func tagOf(seed int64, maxNodes, workers int) string {
	return "seed=" + itoa(int(seed)) + " maxNodes=" + itoa(maxNodes) + " workers=" + itoa(workers)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestReductionsPreserveOptimum is the soundness property suite for
// the set-cover reductions: on 160 seeded random instances, the search
// (presolve kernelization, dominance and symmetry breaking, the
// additive and disjoint-family bounds) must prove the optimal cover
// size that brute force finds.
func TestReductionsPreserveOptimum(t *testing.T) {
	for seed := int64(0); seed < 160; seed++ {
		in, target := randomWeighted(seed)
		want := bruteForce(in, target)
		full := Exact(context.Background(), in, target, ExactOptions{})
		if full.Feasible != (want >= 0) {
			t.Fatalf("seed %d: feasibility %v, brute force optimum %d", seed, full.Feasible, want)
		}
		if !full.Feasible {
			continue
		}
		if !full.Exact {
			t.Fatalf("seed %d: search did not complete", seed)
		}
		if len(full.Chosen) != want {
			t.Fatalf("seed %d: reductions changed the optimum: %d sets, brute force %d",
				seed, len(full.Chosen), want)
		}
		if full.Covered < target-1e-9 {
			t.Fatalf("seed %d: strengthened cover misses the target: %g < %g", seed, full.Covered, target)
		}
	}
}

// TestCancellationKeepsIncumbent cancels a parallel search mid-flight
// and checks the contract: the best incumbent found so far comes back
// feasible with Exact=false, and the subtree worker pool does not leak
// goroutines.
func TestCancellationKeepsIncumbent(t *testing.T) {
	forceParallelPhases(t)
	before := runtime.NumGoroutine()

	in, target := randomWeighted(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the parallel phase dispatches
	res := Exact(ctx, in, target, ExactOptions{Workers: 8})
	if !res.Feasible {
		t.Fatal("canceled search lost the greedy warm-start incumbent")
	}
	if res.Exact {
		t.Fatal("canceled search claimed a proof")
	}
	if res.Covered < target-1e-9 {
		t.Fatalf("canceled search returned an infeasible cover: %g < %g", res.Covered, target)
	}

	// Mid-search deadline: large instance, tight clock.
	big, bigTarget := randomWeighted(11)
	dctx, dcancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer dcancel()
	res = Exact(dctx, big, bigTarget, ExactOptions{Workers: 8})
	if !res.Feasible {
		t.Fatal("deadline search lost its incumbent")
	}
	if res.Covered < bigTarget-1e-9 {
		t.Fatalf("deadline search returned an infeasible cover: %g < %g", res.Covered, bigTarget)
	}

	// The MapTree pool joins before runSubtrees returns, so no workers
	// may outlive the calls above (allow the runtime a moment to retire
	// exiting goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
