package repro

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cover"
	"repro/internal/passive"
)

func testInstance(t *testing.T, seed int64) *Instance {
	t.Helper()
	pop := GeneratePOP(POPConfig{Routers: 6, InterRouterLinks: 10, Endpoints: 6, Seed: seed})
	in, err := RouteSingle(pop, GenerateDemands(pop, TrafficConfig{Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRegistryListsTapSolvers(t *testing.T) {
	names := Solvers()
	taps := 0
	for _, n := range names {
		if strings.HasPrefix(n, "tap/") {
			taps++
		}
	}
	if taps < 5 {
		t.Fatalf("only %d tap solvers registered: %v", taps, names)
	}
	for _, want := range []string{
		"tap/greedy-load", "tap/greedy-gain", "tap/flow-heuristic",
		"tap/ilp", "tap/exact", "tap/portfolio",
		"beacon/thiran", "beacon/greedy", "beacon/ilp",
		"sample/ppme", "sample/rates",
	} {
		if _, err := LookupSolver(want); err != nil {
			t.Errorf("missing built-in solver %q: %v", want, err)
		}
	}
}

func TestRegistryUnknownAndDuplicate(t *testing.T) {
	if _, err := LookupSolver("tap/frobnicate"); err == nil {
		t.Fatal("unknown solver name accepted")
	}
	if _, err := Solve(context.Background(), "no/such", nil); err == nil {
		t.Fatal("Solve accepted unknown solver")
	}
	dup := SolverFunc{SolverName: "tap/ilp"}
	if err := RegisterSolver(dup); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterSolver(SolverFunc{}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestOptionApplication(t *testing.T) {
	deadline := time.Now().Add(time.Hour)
	o := BuildOptions([]Option{
		WithDeadline(deadline),
		WithTimeout(2 * time.Second),
		WithCoverage(0.85),
		WithBudget(4),
		WithInstalled(3, 1),
		WithGap(0.5),
		WithSeed(42),
		WithMaxNodes(1000),
	})
	if !o.Deadline.Equal(deadline) || o.Timeout != 2*time.Second {
		t.Fatalf("deadline/timeout not applied: %+v", o)
	}
	if o.Coverage != 0.85 || o.Budget != 4 || o.Gap != 0.5 || o.Seed != 42 || o.MaxNodes != 1000 {
		t.Fatalf("options not applied: %+v", o)
	}
	if len(o.Installed) != 2 || o.Installed[0] != 3 || o.Installed[1] != 1 {
		t.Fatalf("installed not applied: %+v", o.Installed)
	}
	if def := BuildOptions(nil); def.Coverage != 1 {
		t.Fatalf("default coverage %g, want 1", def.Coverage)
	}
}

func TestSolverRejectsWrongProblemKind(t *testing.T) {
	in := testInstance(t, 5)
	if _, err := Solve(context.Background(), "beacon/greedy", in); err == nil {
		t.Fatal("beacon solver accepted a tap instance")
	}
	if _, err := Solve(context.Background(), "tap/ilp", "nonsense"); err == nil {
		t.Fatal("tap solver accepted a string")
	}
	if _, err := Solve(context.Background(), "tap/ilp", in, WithCoverage(1.5)); err == nil {
		t.Fatal("coverage > 1 accepted")
	}
}

// TestCancelMidSolveReturnsIncumbent is the acceptance test of the
// redesign: cancelling an exact solve returns the best incumbent (at
// worst the greedy warm start) with Optimal == false, instead of an
// error — both for the MIP-based tap/ilp and the combinatorial
// tap/exact.
func TestCancelMidSolveReturnsIncumbent(t *testing.T) {
	in := testInstance(t, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the solver must stop at its first poll

	for _, name := range []string{"tap/ilp", "tap/ilp-lp1", "tap/exact"} {
		res, err := Solve(ctx, name, in, WithCoverage(0.9))
		if err != nil {
			t.Fatalf("%s: canceled solve errored: %v", name, err)
		}
		if res.Optimal {
			t.Fatalf("%s: canceled solve claims optimality", name)
		}
		if res.Taps.Fraction < 0.9-1e-9 {
			t.Fatalf("%s: incumbent coverage %g < 0.9", name, res.Taps.Fraction)
		}
		if res.Devices() == 0 {
			t.Fatalf("%s: empty incumbent", name)
		}
	}

	// The same instance solved without cancellation is proven optimal.
	res, err := Solve(context.Background(), "tap/ilp", in, WithCoverage(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("uncanceled ILP not optimal")
	}
	if res.Stats.Nodes == 0 || res.Stats.Pivots == 0 {
		t.Fatalf("missing solver stats: %+v", res.Stats)
	}
	if res.Stats.Wall <= 0 {
		t.Fatal("missing wall time")
	}
}

// TestTapExactParallelMatchesSerial holds the facade's tap/exact, whose
// cover search runs its subtree phase on GOMAXPROCS workers, to the
// serial oracle on the Figure 8 corpus: the same edges in the same
// order, the same covered-volume bits and the same optimality flag,
// including at the points the 100k-node cap stops.
func TestTapExactParallelMatchesSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const maxNodes = 100_000
	ctx := context.Background()
	dispatched, stolen := 0, 0
	for seed := int64(0); seed < 4; seed++ {
		cfg := Paper15
		cfg.Seed = seed
		pop := GeneratePOP(cfg)
		in, err := RouteSingle(pop, GenerateDemands(pop, TrafficConfig{Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []float64{0.90, 0.95, 1.00} {
			tag := fmt.Sprintf("seed %d k %.2f", seed, k)
			res, err := Solve(ctx, SolverTapExact, in, WithCoverage(k), WithMaxNodes(maxNodes))
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			serial := passive.ExactCover(ctx, in, k, cover.ExactOptions{MaxNodes: maxNodes, Workers: 1})
			if !slices.Equal(res.Taps.Edges, serial.Edges) {
				t.Errorf("%s: edges %v, serial %v", tag, res.Taps.Edges, serial.Edges)
			}
			if math.Float64bits(res.Taps.Covered) != math.Float64bits(serial.Covered) {
				t.Errorf("%s: covered %v, serial %v", tag, res.Taps.Covered, serial.Covered)
			}
			if res.Optimal != serial.Exact {
				t.Errorf("%s: optimal %v, serial %v", tag, res.Optimal, serial.Exact)
			}
			dispatched += res.Stats.SubtreeTasks
			stolen += res.Stats.Steals
		}
	}
	// The comparison is vacuous if every solve closes in the serial
	// burn-in, before any worker starts, or if only one worker ran:
	// a task run off its round-robin home slot needs a second one.
	if dispatched == 0 {
		t.Fatal("no solve dispatched subtree tasks: the parallel phase never ran")
	}
	if stolen == 0 {
		t.Fatal("no subtree task ran off its home worker: Solve's tap/exact ran on one worker")
	}
}

// TestDeadlineMidBranchAndBound drives a real mid-search cancellation:
// a deadline too short to prove optimality on the 15-router instance
// but long enough to enter branch and bound.
func TestDeadlineMidBranchAndBound(t *testing.T) {
	if testing.Short() {
		t.Skip("15-router instance in -short mode")
	}
	pop := GeneratePOP(Paper15)
	in, err := RouteSingle(pop, GenerateDemands(pop, TrafficConfig{Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), "tap/ilp", in,
		WithCoverage(1.0), WithTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Taps.Fraction < 1.0-1e-9 {
		t.Fatalf("incumbent coverage %g < 1", res.Taps.Fraction)
	}
	// The instance is hard enough that 150ms cannot close it; if the
	// solver somehow proved optimality, the test still holds — what
	// matters is a feasible result either way.
	if !res.Optimal && res.Gap < 0 {
		t.Fatalf("negative gap %g", res.Gap)
	}
}

func TestPortfolioPicksBestOfTwo(t *testing.T) {
	in := testInstance(t, 7)
	const k = 0.9

	greedy, err := Solve(context.Background(), "tap/greedy-load", in, WithCoverage(k))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(context.Background(), "tap/exact", in, WithCoverage(k))
	if err != nil {
		t.Fatal(err)
	}

	pf := NewPortfolio("tap/test-portfolio", "tap/greedy-load", "tap/exact")
	res, err := pf.Solve(context.Background(), in, WithCoverage(k))
	if err != nil {
		t.Fatal(err)
	}
	want := exact.Devices()
	if greedy.Devices() < want {
		want = greedy.Devices()
	}
	if res.Devices() != want {
		t.Fatalf("portfolio picked %d devices, want best-of-two %d", res.Devices(), want)
	}
	if res.Devices() > greedy.Devices() {
		t.Fatal("portfolio worse than its worst member")
	}
	if res.Taps.Fraction < k-1e-9 {
		t.Fatalf("portfolio coverage %g < %g", res.Taps.Fraction, k)
	}
}

func TestPortfolioErrors(t *testing.T) {
	in := testInstance(t, 3)
	if _, err := NewPortfolio("p", "tap/nope").Solve(context.Background(), in); err == nil {
		t.Fatal("portfolio with unknown member accepted")
	}
	if _, err := NewPortfolio("p").Solve(context.Background(), in); err == nil {
		t.Fatal("empty portfolio accepted")
	}
}

// TestPortfolioReportsMemberCounters holds tap/portfolio's effort
// counters to its members': the heuristic members add no nodes, fixings,
// presolve reductions or strong branches, so the portfolio must report
// exactly those of its tap/ilp member solved alone.
func TestPortfolioReportsMemberCounters(t *testing.T) {
	in := testInstance(t, 2)
	ilp, err := Solve(context.Background(), SolverTapILP, in, WithCoverage(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if ilp.Stats.PresolveRemoved == 0 || ilp.Stats.StrongBranches == 0 {
		t.Fatalf("instance no longer exercises presolve and strong branching: %+v", ilp.Stats)
	}
	pf, err := Solve(context.Background(), SolverTapPortfolio, in, WithCoverage(0.9))
	if err != nil {
		t.Fatal(err)
	}
	got := [4]int{pf.Stats.Nodes, pf.Stats.VarsFixed, pf.Stats.PresolveRemoved, pf.Stats.StrongBranches}
	want := [4]int{ilp.Stats.Nodes, ilp.Stats.VarsFixed, ilp.Stats.PresolveRemoved, ilp.Stats.StrongBranches}
	if got != want {
		t.Fatalf("portfolio nodes/fixed/presolved/strong = %v, tap/ilp alone %v", got, want)
	}
}

func TestRegisteredPortfolioUnderDeadline(t *testing.T) {
	in := testInstance(t, 11)
	res, err := Solve(context.Background(), "tap/portfolio", in,
		WithCoverage(0.95), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Taps.Fraction < 0.95-1e-9 {
		t.Fatalf("coverage %g", res.Taps.Fraction)
	}
	if res.Solver == "" {
		t.Fatal("portfolio did not report the winning member")
	}
}
