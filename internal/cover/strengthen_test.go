package cover

import (
	"context"
	"math/rand"
	"testing"
)

// randomWeighted draws a random weighted partial-cover instance small
// enough for the root LP but with real overlap structure.
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

// TestRootLPNeverExcisesOptimum forces the lazy root LP on from the
// first node and checks, over a random instance family, that the LP
// bound and the reduced-cost set bans never change the proven-optimal
// cover size relative to the LP-free search.
func TestRootLPNeverExcisesOptimum(t *testing.T) {
	oldTrigger := coverLPTrigger
	defer func() { coverLPTrigger = oldTrigger }()
	banned := 0
	for seed := int64(0); seed < 150; seed++ {
		in, target := randomWeighted(seed)

		coverLPTrigger = 1 << 30 // LP off
		plain := Exact(context.Background(), in, target, ExactOptions{})

		coverLPTrigger = 1 // LP on from the first node
		lp := Exact(context.Background(), in, target, ExactOptions{})

		if plain.Feasible != lp.Feasible {
			t.Fatalf("seed %d: feasibility differs: %v vs %v", seed, plain.Feasible, lp.Feasible)
		}
		if !plain.Feasible {
			continue
		}
		if !plain.Exact || !lp.Exact {
			t.Fatalf("seed %d: searches did not complete: %v vs %v", seed, plain.Exact, lp.Exact)
		}
		if len(plain.Chosen) != len(lp.Chosen) {
			t.Fatalf("seed %d: LP strengthening changed the optimum: %d vs %d sets",
				seed, len(plain.Chosen), len(lp.Chosen))
		}
		if lp.Covered < target-1e-9 {
			t.Fatalf("seed %d: strengthened cover misses the target: %g < %g", seed, lp.Covered, target)
		}
		banned += lp.VarsFixed
	}
	if banned == 0 {
		t.Fatal("reduced-cost set bans never engaged across the whole family")
	}
}
