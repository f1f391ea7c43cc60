package cover

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyFullCoverSimple(t *testing.T) {
	in := Instance{
		NumElements: 4,
		Sets: [][]int{
			{0, 1},    // set 0
			{2},       // set 1
			{3},       // set 2
			{1, 2, 3}, // set 3
		},
	}
	res := Greedy(in)
	if !res.Feasible {
		t.Fatal("feasible instance reported infeasible")
	}
	// Optimal is {0,3}; greedy picks 3 (gain 3) then 0.
	if len(res.Chosen) != 2 {
		t.Fatalf("greedy chose %v, want 2 sets", res.Chosen)
	}
	if res.Covered != 4 {
		t.Fatalf("covered %g, want 4", res.Covered)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	in := Instance{NumElements: 3, Sets: [][]int{{0}, {1}}}
	res := Greedy(in)
	if res.Feasible {
		t.Fatal("element 2 is uncoverable; want infeasible")
	}
}

func TestGreedyPartialStopsEarly(t *testing.T) {
	in := Instance{
		NumElements: 4,
		Weights:     []float64{10, 1, 1, 1},
		Sets:        [][]int{{0}, {1}, {2}, {3}},
	}
	// Target 10 out of 13: one set (the heavy element) is enough.
	res := GreedyPartial(in, 10)
	if len(res.Chosen) != 1 || res.Chosen[0] != 0 {
		t.Fatalf("chosen = %v, want [0]", res.Chosen)
	}
}

func TestGreedyZeroTarget(t *testing.T) {
	in := Instance{NumElements: 2, Sets: [][]int{{0}, {1}}}
	res := GreedyPartial(in, 0)
	if len(res.Chosen) != 0 || !res.Feasible {
		t.Fatalf("zero target should pick nothing: %+v", res)
	}
}

func TestGreedySuboptimalOnPaperCounterexample(t *testing.T) {
	// Figure 3 of the paper: four traffics, two of weight 2 (t0,t1) and
	// two of weight 1 (t2,t3). Links: one carrying {t0,t1} (load 4), two
	// carrying {t0,t2} and {t1,t3} (load 3 each), plus two carrying only
	// {t2} and {t3} (load 1). Greedy takes the load-4 link then the two
	// load-1 links (3 devices); optimal is the two load-3 links.
	in := Instance{
		NumElements: 4,
		Weights:     []float64{2, 2, 1, 1},
		Sets: [][]int{
			{0, 1}, // heavy link, load 4
			{0, 2}, // load 3
			{1, 3}, // load 3
			{2},    // load 1
			{3},    // load 1
		},
	}
	g := Greedy(in)
	if len(g.Chosen) != 3 {
		t.Fatalf("greedy chose %v, want the paper's 3-set trap", g.Chosen)
	}
	ex := Exact(context.Background(), in, in.TotalWeight(), ExactOptions{})
	if !ex.Exact || len(ex.Chosen) != 2 {
		t.Fatalf("exact chose %v (exact=%v), want 2 sets", ex.Chosen, ex.Exact)
	}
}

func TestExactMatchesKnownOptimum(t *testing.T) {
	in := Instance{
		NumElements: 6,
		Sets: [][]int{
			{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}, {2, 5},
		},
	}
	res := Exact(context.Background(), in, 6, ExactOptions{})
	if !res.Exact || len(res.Chosen) != 2 {
		t.Fatalf("exact = %v (%d sets), want 2", res.Chosen, len(res.Chosen))
	}
}

func TestExactInfeasible(t *testing.T) {
	in := Instance{NumElements: 2, Weights: []float64{1, 1}, Sets: [][]int{{0}}}
	res := Exact(context.Background(), in, 2, ExactOptions{})
	if res.Feasible {
		t.Fatal("want infeasible")
	}
}

func TestExactNodeCap(t *testing.T) {
	// Small random sets with no universal fallback: the optimum needs
	// many sets, so a 2-node budget cannot close the search.
	rng := rand.New(rand.NewSource(3))
	in := Instance{NumElements: 40, Sets: make([][]int, 30)}
	for s := range in.Sets {
		for len(in.Sets[s]) < 3 {
			in.Sets[s] = append(in.Sets[s], rng.Intn(40))
		}
	}
	for e := 0; e < 40; e++ {
		in.Sets[e%30] = append(in.Sets[e%30], e) // ensure coverability
	}
	res := Exact(context.Background(), in, in.TotalWeight()*0.9, ExactOptions{MaxNodes: 2})
	if res.Exact {
		t.Fatal("2-node budget cannot prove optimality on a 25-set instance")
	}
	if !res.Feasible || len(res.Chosen) == 0 {
		t.Fatal("capped search must still return the greedy incumbent")
	}
}

func TestValidate(t *testing.T) {
	bad := []Instance{
		{NumElements: -1},
		{NumElements: 2, Weights: []float64{1}},
		{NumElements: 2, Weights: []float64{1, -3}},
		{NumElements: 2, Sets: [][]int{{5}}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	ok := Instance{NumElements: 2, Weights: []float64{1, 2}, Sets: [][]int{{0, 1}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestTotalWeight(t *testing.T) {
	unit := Instance{NumElements: 5}
	if unit.TotalWeight() != 5 {
		t.Fatalf("unit total = %g", unit.TotalWeight())
	}
	w := Instance{NumElements: 2, Weights: []float64{1.5, 2.5}}
	if w.TotalWeight() != 4 {
		t.Fatalf("weighted total = %g", w.TotalWeight())
	}
}

// greedyBoundRatio returns the Slavík approximation guarantee
// ln n − ln ln n + Θ(1) for instance size n (clamped below at 1): how
// far the greedy can be from optimal.
func greedyBoundRatio(n int) float64 {
	if n < 3 {
		return 1
	}
	r := math.Log(float64(n)) - math.Log(math.Log(float64(n))) + 0.78
	if r < 1 {
		return 1
	}
	return r
}

func TestGreedyBoundRatio(t *testing.T) {
	if greedyBoundRatio(1) != 1 || greedyBoundRatio(2) != 1 {
		t.Fatal("tiny instances must have ratio 1")
	}
	r100 := greedyBoundRatio(100)
	r1000 := greedyBoundRatio(1000)
	if r100 <= 1 || r1000 <= r100 {
		t.Fatalf("ratio not growing: %g, %g", r100, r1000)
	}
	// Must stay below the classical H_n bound.
	if r1000 > math.Log(1000)+1 {
		t.Fatalf("ratio %g above harmonic bound", r1000)
	}
}

func randomInstance(rng *rand.Rand, nElem, nSets int) Instance {
	in := Instance{NumElements: nElem, Weights: make([]float64, nElem)}
	for i := range in.Weights {
		in.Weights[i] = 1 + rng.Float64()*9
	}
	in.Sets = make([][]int, nSets)
	for s := range in.Sets {
		size := 1 + rng.Intn(nElem/2+1)
		seen := map[int]bool{}
		for len(in.Sets[s]) < size {
			e := rng.Intn(nElem)
			if !seen[e] {
				seen[e] = true
				in.Sets[s] = append(in.Sets[s], e)
			}
		}
	}
	// Guarantee coverability.
	all := make([]int, nElem)
	for i := range all {
		all[i] = i
	}
	in.Sets = append(in.Sets, all)
	return in
}

// bruteForce returns the fewest sets whose union reaches target, or -1
// when even all of them fall short. It shares nothing with the search:
// elements are uint64 masks (at most 64 elements), subset sizes are
// tried in increasing order so the first size with a feasible subset is
// optimal, and within a size a prefix is abandoned once the sets after
// it cannot lift the union to target.
func bruteForce(in Instance, target float64) int {
	if in.NumElements > 64 {
		panic("bruteForce: more than 64 elements")
	}
	n := len(in.Sets)
	masks := make([]uint64, n)
	for si, set := range in.Sets {
		for _, e := range set {
			masks[si] |= 1 << uint(e)
		}
	}
	suffix := make([]uint64, n+1) // suffix[i] = union of masks[i:]
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] | masks[i]
	}
	reaches := func(m uint64) bool {
		w := 0.0
		for ; m != 0; m &= m - 1 {
			w += in.weight(bits.TrailingZeros64(m))
		}
		return w >= target-1e-12
	}
	if !reaches(suffix[0]) {
		return -1
	}
	// pick reports whether left more sets, taken from index from on,
	// extend union to the target.
	var pick func(from, left int, union uint64) bool
	pick = func(from, left int, union uint64) bool {
		if left == 0 {
			return reaches(union)
		}
		for i := from; i+left <= n; i++ {
			if !reaches(union | suffix[i]) {
				return false
			}
			if pick(i+1, left-1, union|masks[i]) {
				return true
			}
		}
		return false
	}
	for size := 0; ; size++ {
		if pick(0, size, 0) {
			return size
		}
	}
}

// Property: the exact branch-and-bound matches brute force on random
// small instances at several coverage targets.
func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nElem := 2 + rng.Intn(10)
		nSets := 1 + rng.Intn(9)
		in := randomInstance(rng, nElem, nSets)
		for _, k := range []float64{0.5, 0.8, 0.95, 1.0} {
			target := in.TotalWeight() * k
			want := bruteForce(in, target)
			got := Exact(context.Background(), in, target, ExactOptions{})
			if !got.Exact {
				t.Logf("seed %d k=%g: node cap hit on a tiny instance", seed, k)
				return false
			}
			if len(got.Chosen) != want {
				t.Logf("seed %d k=%g: exact=%d brute=%d", seed, k, len(got.Chosen), want)
				return false
			}
			if got.Covered < target-1e-9 {
				t.Logf("seed %d k=%g: covered %g < target %g", seed, k, got.Covered, target)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy is never better than exact and always within the
// Slavík ratio of it.
func TestGreedyWithinBoundOfExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 3+rng.Intn(12), 2+rng.Intn(10))
		target := in.TotalWeight() * (0.6 + 0.4*rng.Float64())
		g := GreedyPartial(in, target)
		ex := Exact(context.Background(), in, target, ExactOptions{})
		if !g.Feasible || !ex.Feasible {
			return true
		}
		if len(g.Chosen) < len(ex.Chosen) {
			t.Logf("seed %d: greedy %d beats exact %d", seed, len(g.Chosen), len(ex.Chosen))
			return false
		}
		ratio := greedyBoundRatio(in.NumElements) + 1 // partial cover pays +1 (Slavík)
		if float64(len(g.Chosen)) > ratio*float64(len(ex.Chosen))+1e-9 {
			t.Logf("seed %d: greedy %d > %g × exact %d", seed, len(g.Chosen), ratio, len(ex.Chosen))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
