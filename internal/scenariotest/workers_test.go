package scenariotest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/passive"
	"repro/internal/scenario"
	"repro/internal/traffic"

	"repro/internal/cover"
)

// rescaleChain replays a rescale-dominant churn chain: per step, demand
// volumes are reweighted in [0.8, 1.25] while the demand set (and so
// the LP's row structure) is preserved, which is the mutation class
// under which the session's saved basis remains shippable.
func rescaleChain(s *scenario.Scenario, steps int) ([]*core.Instance, error) {
	dem := s.Demands
	in, err := traffic.Route(s.POP, traffic.Aggregate(dem))
	if err != nil {
		return nil, err
	}
	chain := []*core.Instance{in}
	for step := 1; step <= steps; step++ {
		mutated, _, err := traffic.ChurnWithDelta(s.POP, dem, traffic.ChurnConfig{
			Seed: s.Seed + int64(step), Drop: 1e-12, Add: 1e-12,
			RescaleLow: 0.8, RescaleHigh: 1.25,
		})
		if err != nil {
			return nil, err
		}
		in, err := traffic.Route(s.POP, traffic.Aggregate(mutated))
		if err != nil {
			return nil, err
		}
		chain = append(chain, in)
		dem = mutated
	}
	return chain, nil
}

// TestExactCoverWorkerIdentity extends the cross-solver harness with
// the determinism oracle of the parallel branch-and-bound: on every
// scenario family, the exact cover search must return byte-identical
// placements for Workers ∈ {1, 2, 8} — same edges in the same order,
// same covered volume, same optimality flag — both under an ample node
// budget and under a tight budget that exhausts the serial burn-in and
// forces the capped parallel path.
func TestExactCoverWorkerIdentity(t *testing.T) {
	fams := scenario.Families()
	sizes := []int{12, 16}
	seeds := []int64{3, 8}
	// Short mode keeps size 16: every size-12 instance closes inside
	// the serial burn-in, which would trip the vacuity guard below.
	if testing.Short() {
		sizes = []int{16}
		seeds = []int64{3}
	}
	type cell struct {
		fam      string
		size     int
		seed     int64
		maxNodes int
	}
	var cells []cell
	for _, fam := range fams {
		for _, size := range sizes {
			for _, seed := range seeds {
				// 50k closes most instances (identity on the proof
				// path); 2600 leaves ~550 nodes past the serial burn-in,
				// so hard instances dispatch budget-capped subtree tasks.
				for _, maxNodes := range []int{50_000, 2600} {
					cells = append(cells, cell{fam, size, seed, maxNodes})
				}
			}
		}
	}

	const k = 0.97
	ctx := context.Background()
	tasks, err := engine.Map(ctx, engine.New(engine.Options{}), len(cells), func(ctx context.Context, i int) (int, error) {
		c := cells[i]
		size := c.size
		if f, _ := scenario.Lookup(c.fam); size < f.MinSize {
			size = f.MinSize
		}
		s, err := scenario.Generate(c.fam, size, c.seed)
		if err != nil {
			return 0, fmt.Errorf("%s/%d/%d: %w", c.fam, size, c.seed, err)
		}
		in, err := s.Instance()
		if err != nil {
			return 0, fmt.Errorf("%s/%d/%d: %w", c.fam, size, c.seed, err)
		}

		serial := passive.ExactCover(ctx, in, k, cover.ExactOptions{MaxNodes: c.maxNodes, Workers: 1})
		dispatched := 0
		for _, w := range []int{2, 8} {
			par := passive.ExactCover(ctx, in, k, cover.ExactOptions{MaxNodes: c.maxNodes, Workers: w})
			tag := fmt.Sprintf("%s/size=%d/seed=%d/maxNodes=%d/workers=%d", c.fam, size, c.seed, c.maxNodes, w)
			if par.Exact != serial.Exact {
				t.Errorf("%s: exact flag %v, serial says %v", tag, par.Exact, serial.Exact)
			}
			if par.Covered != serial.Covered {
				t.Errorf("%s: covered %v, serial %v", tag, par.Covered, serial.Covered)
			}
			if len(par.Edges) != len(serial.Edges) {
				t.Errorf("%s: %d devices, serial %d", tag, len(par.Edges), len(serial.Edges))
				continue
			}
			for j := range par.Edges {
				if par.Edges[j] != serial.Edges[j] {
					t.Errorf("%s: edges differ at %d: %v vs %v", tag, j, par.Edges, serial.Edges)
					break
				}
			}
			dispatched += par.Stats.SubtreeTasks
		}
		return dispatched, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	total := 0
	for _, n := range tasks {
		total += n
	}
	// The oracle is vacuous if every instance closes inside the serial
	// burn-in: the sweep must push at least some searches into the
	// parallel phase.
	if total == 0 {
		t.Fatal("no scenario instance dispatched subtree tasks — the parallel phase never ran")
	}
}

// TestWarmResolveWorkerIdentity extends the determinism oracle to warm
// re-solves: replaying each family's churn chain, a solve seeded with
// the previous step's root LP basis (what Session.Resolve ships) must
// return byte-identical placements for
// Workers ∈ {1, 2, 8}, each identical to the cold serial solve of the
// same instance. This is the resolve==cold lock at the cover layer,
// where the worker count can be chosen (the facade's tap/exact solve
// always uses GOMAXPROCS workers; invariant 6 covers it there).
// Comparisons apply only when both sides prove optimality — a
// budget-capped incumbent is documented to be warm-dependent.
//
// The chain uses churn's rescale mutation (volumes reweighted, rows
// kept): it preserves the root LP's shape, so the saved basis actually
// engages and the vacuity guard below has teeth. Row-churning chains
// (drop/add) are exercised by invariant 6 — there the artifacts are
// legitimately rejected on revalidation, which this test cannot
// distinguish from a warm path that silently broke.
func TestWarmResolveWorkerIdentity(t *testing.T) {
	fams := scenario.Families()
	// Seeds and coverage are picked so that on at least the pop and
	// churn families the cold solve reaches the root LP (captures a
	// basis) and the next step consumes it — the other families ride
	// along for the identity check even where warmth never engages.
	seeds := []int64{2, 4}
	if testing.Short() {
		seeds = []int64{2}
	}
	const (
		k        = 0.95
		size     = 16
		maxNodes = 50_000
	)
	ctx := context.Background()
	warmEngaged, err := engine.Map(ctx, engine.New(engine.Options{}), len(fams)*len(seeds), func(ctx context.Context, i int) (int, error) {
		fam, seed := fams[i/len(seeds)], seeds[i%len(seeds)]
		sz := size
		if f, _ := scenario.Lookup(fam); sz < f.MinSize {
			sz = f.MinSize
		}
		s, err := scenario.Generate(fam, sz, seed)
		if err != nil {
			return 0, fmt.Errorf("%s/%d/%d: %w", fam, sz, seed, err)
		}
		chain, err := rescaleChain(s, 2)
		if err != nil {
			return 0, fmt.Errorf("%s/%d/%d: churn chain: %w", fam, sz, seed, err)
		}
		engaged := 0
		var prevBasis *lp.Basis
		for step, in := range chain {
			cold := passive.ExactCover(ctx, in, k, cover.ExactOptions{MaxNodes: maxNodes, Workers: 1})
			var warm *cover.Warm
			if prevBasis != nil {
				warm = &cover.Warm{Basis: prevBasis}
			}
			capt := &cover.Capture{}
			for _, w := range []int{1, 2, 8} {
				opts := cover.ExactOptions{MaxNodes: maxNodes, Workers: w, Warm: warm}
				if w == 1 {
					opts.Capture = capt // next step's seed: same artifacts for every worker count
				}
				got := passive.ExactCover(ctx, in, k, opts)
				engaged += got.Stats.WarmStarts
				if !got.Exact || !cold.Exact {
					continue
				}
				tag := fmt.Sprintf("%s/size=%d/seed=%d/step=%d/workers=%d", fam, sz, seed, step, w)
				if got.Covered != cold.Covered {
					t.Errorf("%s: warm covered %v, cold serial %v", tag, got.Covered, cold.Covered)
				}
				if len(got.Edges) != len(cold.Edges) {
					t.Errorf("%s: warm placed %d devices, cold serial %d", tag, len(got.Edges), len(cold.Edges))
					continue
				}
				for j := range got.Edges {
					if got.Edges[j] != cold.Edges[j] {
						t.Errorf("%s: edges differ at %d: %v vs %v", tag, j, got.Edges, cold.Edges)
						break
					}
				}
			}
			prevBasis = capt.Basis
		}
		return engaged, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	total := 0
	for _, n := range warmEngaged {
		total += n
	}
	// The lock is vacuous if no warm artifact was ever consumed.
	if total == 0 {
		t.Fatal("no warm solve consumed an artifact — the warm path never engaged")
	}
}
