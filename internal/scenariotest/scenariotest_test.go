package scenariotest

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// harnessMatrix is the short-mode metamorphic matrix: every registered
// family (6 ≥ the acceptance floor of 5) at two capped sizes, two
// seeds each, against all five invariants — the registered tap (9
// solvers), beacon (3) and sampling (2) entries all participate via
// the invariant bodies. Long mode widens sizes and seeds.
func harnessMatrix(t *testing.T) ([]Case, []Invariant) {
	t.Helper()
	// The "pop"/"churn" families carry the paper's full endpoint
	// density (size 10 ≈ the paper's Figure 7 instance, 132+ traffics),
	// and some seeds above that size draw pathological PPME MILPs
	// (minutes per solve), so they stay capped at 10; the other
	// families use ~half the endpoint density and stretch further.
	heavy, light := []int{8, 10}, []int{8, 10}
	seeds := []int64{1, 2}
	if !testing.Short() {
		light = []int{8, 10, 14}
		seeds = []int64{1, 2, 3}
	}
	sizesOf := func(fam string) []int {
		if fam == "pop" || fam == "churn" {
			return heavy
		}
		return light
	}
	var cases []Case
	for _, fam := range scenario.Families() {
		cs, err := BuildCases([]string{fam}, sizesOf(fam), seeds, 0.9)
		if err != nil {
			t.Fatalf("BuildCases(%s): %v", fam, err)
		}
		cases = append(cases, cs...)
	}
	return cases, Invariants()
}

// TestMetamorphicHarness is the acceptance suite: ≥5 generator
// families × ≥3 solvers against all five invariants.
func TestMetamorphicHarness(t *testing.T) {
	cases, invs := harnessMatrix(t)
	if fams := scenario.Families(); len(fams) < 5 {
		t.Fatalf("want ≥5 registered families, have %v", fams)
	}
	if len(invs) != 5 {
		t.Fatalf("want the 5-invariant catalog, have %d", len(invs))
	}
	failures, err := Run(context.Background(), engine.New(engine.Options{}), cases, invs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestRunDeterministicAcrossWorkers re-runs the harness serially and
// in parallel: the failure list (here: empty, but the property holds
// regardless) must be identical — engine.Map's task-index ordering at
// work.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cases, err := BuildCases([]string{"pop", "metro"}, []int{8}, []int64{5}, 0.85)
	if err != nil {
		t.Fatalf("BuildCases: %v", err)
	}
	invs := Invariants()
	serial, err := Run(context.Background(), engine.New(engine.Options{Workers: 1}), cases, invs)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}
	parallel, err := Run(context.Background(), engine.New(engine.Options{Workers: 8}), cases, invs)
	if err != nil {
		t.Fatalf("parallel Run: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial found %d failures, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].String() != parallel[i].String() {
			t.Errorf("failure %d: serial %q vs parallel %q", i, serial[i], parallel[i])
		}
	}
}

// TestBuildCasesRejectsUnknownFamily pins the registry error path.
func TestBuildCasesRejectsUnknownFamily(t *testing.T) {
	if _, err := BuildCases([]string{"no-such-family"}, []int{8}, []int64{1}, 0.9); err == nil {
		t.Fatal("want error for unknown family")
	}
	if _, err := BuildCases([]string{"pop"}, []int{1}, []int64{1}, 0.9); err == nil {
		t.Fatal("want error for size below the family floor")
	}
}
