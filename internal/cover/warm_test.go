package cover

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// churnInstance builds a covering instance with no universal set: every
// set covers a handful of elements, every element lands in at least one
// set, so a high-coverage target needs a multi-set cover and the search
// tree is non-trivial.
func churnInstance(rng *rand.Rand, nElem, nSets, setSize int) Instance {
	in := Instance{NumElements: nElem}
	in.Weights = make([]float64, nElem)
	for e := 0; e < nElem; e++ {
		in.Weights[e] = 1 + rng.Float64()*9
	}
	in.Sets = make([][]int, nSets)
	for i := range in.Sets {
		seen := map[int]bool{}
		for len(seen) < setSize {
			seen[rng.Intn(nElem)] = true
		}
		//placevet:ignore maporder -- collected set is sorted immediately below
		for e := range seen {
			in.Sets[i] = append(in.Sets[i], e)
		}
		sortInts(in.Sets[i])
	}
	for e := 0; e < nElem; e++ {
		si := rng.Intn(nSets)
		if !containsInt(in.Sets[si], e) {
			in.Sets[si] = append(in.Sets[si], e)
			sortInts(in.Sets[si])
		}
	}
	return in
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func containsInt(a []int, v int) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}

// mutateWeights returns a copy of in with every element weight rescaled
// by a seeded per-element factor in [0.5, 2) — the cover-level shape of
// a traffic churn rescale step (the set structure is untouched).
func mutateWeights(in Instance, seed int64) Instance {
	rng := rand.New(rand.NewSource(seed))
	out := Instance{NumElements: in.NumElements, Sets: in.Sets}
	out.Weights = make([]float64, in.NumElements)
	for e := 0; e < in.NumElements; e++ {
		out.Weights[e] = in.weight(e) * (0.5 + 1.5*rng.Float64())
	}
	return out
}

// answerOf strips the effort counters: the warm==cold contract is on
// the answer (cover, coverage, flags), while Nodes/Pivots/etc. reflect
// how much work the proof needed, which warm starts exist to shrink.
func answerOf(r Result) Result {
	r.SolveStats = core.SolveStats{}
	return r
}

// TestWarmResolveMatchesCold is the cover-level resolve==cold lock: on
// rescaled mutations of random instances, a warm solve seeded with the
// previous root LP basis must return byte-identical answers to a cold
// solve of the mutated instance.
func TestWarmResolveMatchesCold(t *testing.T) {
	old := coverLPTrigger
	coverLPTrigger = 1 // force the LP decision point so bases exist
	t.Cleanup(func() { coverLPTrigger = old })

	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := churnInstance(rng, 30, 18, 4)
		target := base.TotalWeight() * 0.92

		cap0 := &Capture{}
		prev := Exact(ctx, base, target, ExactOptions{Capture: cap0})
		if !prev.Feasible || !prev.Exact {
			t.Fatalf("seed %d: base solve not exact (feasible=%v)", seed, prev.Feasible)
		}

		mut := mutateWeights(base, seed+100)
		mutTarget := mut.TotalWeight() * 0.92
		cold := Exact(ctx, mut, mutTarget, ExactOptions{})
		warm := Exact(ctx, mut, mutTarget, ExactOptions{Warm: &Warm{Basis: cap0.Basis}})
		if !reflect.DeepEqual(answerOf(cold), answerOf(warm)) {
			t.Errorf("seed %d: warm answer diverged\ncold: %+v\nwarm: %+v", seed, cold, warm)
		}
	}
}

// TestWarmStaleArtifactsIgnored feeds a root LP basis captured on a
// differently shaped instance. The LP must discard it and solve cold:
// the answer matches a cold solve and no warm start is counted.
func TestWarmStaleArtifactsIgnored(t *testing.T) {
	old := coverLPTrigger
	coverLPTrigger = 1 // force the LP decision point so the basis is offered
	t.Cleanup(func() { coverLPTrigger = old })

	ctx := context.Background()
	other := churnInstance(rand.New(rand.NewSource(3)), 30, 18, 4)
	capt := &Capture{}
	Exact(ctx, other, other.TotalWeight()*0.92, ExactOptions{Capture: capt})
	if capt.Basis == nil {
		t.Fatal("the source solve captured no basis")
	}

	in := churnInstance(rand.New(rand.NewSource(7)), 24, 14, 4)
	target := in.TotalWeight() * 0.9
	cold := Exact(ctx, in, target, ExactOptions{})
	warm := Exact(ctx, in, target, ExactOptions{Warm: &Warm{Basis: capt.Basis}})
	if !reflect.DeepEqual(answerOf(cold), answerOf(warm)) {
		t.Errorf("stale basis changed the answer: cold %v warm %v", cold.Chosen, warm.Chosen)
	}
	if warm.Pivots == 0 {
		t.Fatal("the root LP never ran, so the stale basis was never offered")
	}
	if warm.WarmStarts != 0 {
		t.Errorf("stale basis counted as %d warm starts", warm.WarmStarts)
	}
}

// TestWarmCaptureBasis: the capture sink receives the root LP basis
// when the LP runs, and a subsequent warm solve actually applies it
// (WarmStarts > 0 on at least one seed).
func TestWarmCaptureBasis(t *testing.T) {
	old := coverLPTrigger
	coverLPTrigger = 1
	t.Cleanup(func() { coverLPTrigger = old })

	ctx := context.Background()
	warmApplied := 0
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := churnInstance(rng, 30, 18, 4)
		target := in.TotalWeight() * 0.92
		cap0 := &Capture{}
		Exact(ctx, in, target, ExactOptions{Capture: cap0})
		if cap0.Basis == nil {
			continue // burn-in closed before the LP decision point
		}
		mut := mutateWeights(in, seed+50)
		warm := Exact(ctx, mut, mut.TotalWeight()*0.92, ExactOptions{Warm: &Warm{Basis: cap0.Basis}})
		warmApplied += warm.WarmStarts
	}
	if warmApplied == 0 {
		t.Fatal("no seed applied any warm artifact — the warm path never engaged")
	}
}
