package scenariotest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/passive"
	"repro/internal/scenario"
)

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
