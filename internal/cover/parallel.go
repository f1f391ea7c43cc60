package cover

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
)

// This file implements the parallel phase of Exact: the serial frontier
// expansion snapshots independent subtree tasks, engine.MapTree fans
// them out over a bounded worker pool, and the results merge by
// (cover size, task index). Determinism discipline (DESIGN.md §4a):
// every task searches against ONLY its own deterministic state — local
// incumbent seeded from the serial phases, task-local reduced-cost
// bans, task-local node budget — so each task's report is independent
// of scheduling. The shared atomic incumbent is written eagerly but
// read solely for the whole-subtree abort taskLB > G, which can only
// drop subtrees whose every solution provably loses the merge. A task
// that would win the merge (lowest index reporting the final minimum
// L*) has taskLB ≤ L* ≤ G at all times, so it can never abort: the
// merged cover is byte-identical for any worker count and schedule.

// coverTask is one frontier node: the deterministic snapshot of the
// mutable search state at a fixed branching depth.
type coverTask struct {
	covered     bitset
	permCovered bitset
	coveredW    float64
	dualUncov   float64
	chosen      []int
	gains       []float64
	// lb is the sharpest static bound computed at the snapshot node:
	// every cover in this subtree has at least lb sets. It is the
	// task's abort certificate against the shared incumbent.
	lb int
}

// snapshotTask clones the mutable search state into an independent
// subtree task. Called in DFS order, so the slice index doubles as the
// deterministic merge tie-break.
func (s *exactSearch) snapshotTask(covered bitset, coveredW, dualUncov float64, chosen []int, lb int) {
	t := &coverTask{
		covered:   covered.clone(),
		coveredW:  coveredW,
		dualUncov: dualUncov,
		chosen:    append([]int(nil), chosen...),
		gains:     append([]float64(nil), s.gains...),
		lb:        lb,
	}
	if s.permCovered != nil {
		t.permCovered = s.permCovered.clone()
	}
	s.tasks = append(s.tasks, t)
}

// atomicMin is the shared incumbent length: publish keeps the minimum.
type atomicMin struct{ v atomic.Int64 }

func (m *atomicMin) load() int64 { return m.v.Load() }

func (m *atomicMin) publish(n int64) {
	for {
		cur := m.v.Load()
		if n >= cur || m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// taskSearch runs one subtree task to completion (or its budget, or an
// abort) on a clone of the root search that shares every immutable
// structure and owns every mutable one.
func (s *exactSearch) taskSearch(t *coverTask, budget int, g *atomicMin) *exactSearch {
	c := &exactSearch{
		ctx:     s.ctx,
		in:      s.in,
		target:  s.target,
		tol:     s.tol,
		best:    s.best,
		bestLen: s.bestLen,
		maxN:    budget,

		lpZ:          s.lpZ,
		lpDj:         s.lpDj,
		rootLB:       s.rootLB,
		haveRootLB:   s.haveRootLB,
		rootExcluded: s.rootExcluded,
		forced:       s.forced,

		elemCoverers: s.elemCoverers,
		elemOrder:    s.elemOrder,
		permPos:      s.permPos,
		permCovered:  t.permCovered,
		elemSets:     s.elemSets,
		setMasks:     s.setMasks,

		dualPhi:    s.dualPhi,
		dualLambda: s.dualLambda,

		gains: t.gains,

		frontierDepth: -1,
		pubG:          g,
		taskLB:        t.lb,
	}
	if s.banned != nil {
		// Bans tighten against the task's own incumbent improvements;
		// a task-local copy keeps that evolution schedule-independent.
		c.banned = append([]bool(nil), s.banned...)
	}
	if s.elemOrder != nil {
		c.disjointUsed = newBitset(len(s.in.Sets))
	}
	c.search(t.covered, t.coveredW, t.dualUncov, t.chosen)
	return c
}

// subtreeOut is one task's deterministic report.
type subtreeOut struct {
	chosen   []int
	length   int
	improved bool
	capped   bool
	// st is the task's effort: its Nodes and DominancePrunes.
	st core.SolveStats
}

// runSubtrees dispatches the frontier over a workers-bounded pool and
// folds the reports back into s by (length, task index).
func (s *exactSearch) runSubtrees(workers, maxNodes int) {
	tasks := s.tasks
	s.tasks = nil
	s.st.SubtreeTasks = len(tasks)
	// Static per-task node budgets: an even share of the remaining
	// global budget, raised to a small floor so no task is dispatched
	// with a useless sliver — but cumulatively clamped so the floor
	// cannot multiply the caller's MaxNodes by the task count. Late
	// tasks past the clamp get zero budget and report capped without
	// running, exactly like the subtrees a serial search with the same
	// budget would never reach. All quantities are static, so budgets
	// are identical for any worker count.
	remaining := maxNodes - s.st.Nodes
	if remaining < 0 {
		remaining = 0
	}
	share := remaining / len(tasks)
	if share < minTaskBudget {
		share = minTaskBudget
	}
	budgets := make([]int, len(tasks))
	for i := range budgets {
		b := share
		if left := remaining - i*share; left < b {
			b = left
		}
		if b < 0 {
			b = 0
		}
		budgets[i] = b
	}
	var g atomicMin
	g.v.Store(int64(s.bestLen))
	seedLen := s.bestLen

	eng := engine.New(engine.Options{Workers: workers})
	outs, ts, _ := engine.MapTree(s.ctx, eng, len(tasks), func(_ context.Context, i, _ int) (subtreeOut, error) {
		t := tasks[i]
		if budgets[i] == 0 {
			// Out of global node budget before this task's slot: it is
			// deterministically unexplored, exactly like a subtree a
			// serial search with the same MaxNodes never reached.
			return subtreeOut{length: seedLen, capped: true}, nil
		}
		if s.ctx.Err() != nil {
			// Canceled before this task started: the serial incumbent
			// (or a sibling's report) stands.
			return subtreeOut{}, nil
		}
		if int64(t.lb) > g.load() {
			// Whole-subtree abort at dispatch: nothing in here can beat
			// an already-published cover, even on ties.
			return subtreeOut{}, nil
		}
		c := s.taskSearch(t, budgets[i], &g)
		o := subtreeOut{length: c.bestLen, st: c.st}
		if !c.aborted {
			o.capped = c.capped
			if c.bestLen < seedLen {
				// Mid-task aborts void the report: an aborted task's
				// partial incumbent is timing-dependent, and the abort
				// certificate already proves it loses the merge.
				o.improved, o.chosen = true, c.best
			}
		}
		return o, nil
	})

	s.st.Steals = ts.Steals
	for _, o := range outs {
		s.st.Add(o.st)
		if o.improved && o.length < s.bestLen {
			s.bestLen, s.best = o.length, o.chosen
		}
	}
	// Exactness: a capped subtree only voids the proof if it could
	// still hold something better than the merged cover. (Whether a
	// hopeless subtree capped or aborted first is schedule noise; this
	// test is schedule-independent because tasks that matter — those
	// with lb ≤ merged length — can never abort.)
	for i, o := range outs {
		if o.capped && tasks[i].lb < s.bestLen {
			s.capped = true
		}
	}
	if s.ctx.Err() != nil {
		s.capped = true
	}
}

// resultOn assembles the Result, re-expanding the chosen sets on the
// original (pre-merge, pre-presolve) instance.
func (s *exactSearch) resultOn(orig Instance) Result {
	res := Result{Chosen: s.best, Feasible: true, Exact: !s.capped, SolveStats: s.effort()}
	final := newBitset(orig.NumElements)
	for _, si := range s.best {
		for _, e := range orig.Sets[si] {
			if !final.get(e) {
				final.set(e)
				res.Covered += orig.weight(e)
			}
		}
	}
	return res
}
