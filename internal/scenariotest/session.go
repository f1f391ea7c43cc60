package scenariotest

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro"
	"repro/internal/scenario"
)

// This file implements invariant 6, resolve-equals-cold: session
// re-optimization (repro.Session) must be answer-preserving. For every
// registered solver, replaying a churn chain through Session.Resolve
// must produce answers byte-identical to cold Solve calls on the same
// mutated instances — the warm artifact (the saved root LP basis) is
// allowed to change effort counters and wall time, never the
// placement, objective, bound, or optimality flag.
//
// One carve-out, mirrored from the cover search's documented contract:
// a budget-capped or canceled exact solve returns a best-effort
// incumbent that is NOT canonicalized, so when either side of a
// comparison failed to prove optimality on a branch-and-bound solver
// the byte-compare is skipped (the flags and the carve-out itself are
// still exercised: heuristic solvers, which never prove optimality but
// are deterministic, are always compared).

// canonicalAnswer serializes a Result for byte-identity comparison
// with every effort block zeroed: the top-level Stats and the
// placement-embedded counter blocks carry wall clock, node, pivot and
// warm-start counts that warmth is expected to change.
func canonicalAnswer(r *repro.Result) (string, error) {
	cp := *r
	cp.Stats = repro.Stats{}
	if cp.Taps != nil {
		t := *cp.Taps
		t.Stats = repro.TapPlacement{}.Stats
		cp.Taps = &t
	}
	if cp.Beacons != nil {
		b := *cp.Beacons
		b.Stats = repro.BeaconPlacement{}.Stats
		cp.Beacons = &b
	}
	if cp.Sampling != nil {
		sp := *cp.Sampling
		sp.Stats = repro.SamplingSolution{}.Stats
		cp.Sampling = &sp
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		return "", fmt.Errorf("marshal result: %w", err)
	}
	return string(b), nil
}

// cappedSearch reports whether a warm/cold pair sits outside the
// metamorphic lock: a tree search (Nodes > 0) that did not prove
// optimality on either side returns a budget-shaped incumbent, which
// the cover/MIP contracts allow to differ warm vs cold.
func cappedSearch(warm, cold *repro.Result) bool {
	if warm.Optimal && cold.Optimal {
		return false
	}
	return warm.Stats.Nodes > 0 || cold.Stats.Nodes > 0
}

// checkResolveEqualsCold drives every registered solver through a
// Session over the case's churn chain (tap solvers; the chain is the
// scenario's demands under successive traffic.Churn mutations) or over
// a repeated problem (beacon and sampling solvers, whose problem kinds
// the Delta classifier routes to cold re-solves), comparing each
// Resolve against a cold Solve of the same problem.
func checkResolveEqualsCold(ctx context.Context, c Case) error {
	s, err := scenario.Generate(c.Family, c.Size, c.Seed)
	if err != nil {
		return err
	}
	chain, _, err := repro.ChurnSteps(s, 2)
	if err != nil {
		return fmt.Errorf("churn chain: %w", err)
	}
	ps, err := c.probes()
	if err != nil {
		return err
	}
	for _, name := range repro.Solvers() {
		var problems []repro.Problem
		opts := []repro.Option{repro.WithCoverage(c.K)}
		memoized := false
		switch {
		case strings.HasPrefix(name, "tap/"):
			for _, in := range chain {
				problems = append(problems, in)
			}
			if name == repro.SolverTapMaxCover {
				opts = append(opts, repro.WithBudget(3))
			}
		case strings.HasPrefix(name, "beacon/"):
			// Churn mutates traffic, not topology: the probe set is the
			// same problem each step, re-solved through the session's
			// DeltaUnknown (cold) path.
			problems = []repro.Problem{ps, ps}
			memoized = true
		case name == repro.SolverSampleRates:
			// The rate assigner needs a pre-installed device set;
			// installing every edge keeps any coverage target feasible.
			all := make([]repro.EdgeID, c.Multi.G.NumEdges())
			for i := range all {
				all[i] = repro.EdgeID(i)
			}
			opts = append(opts, repro.WithInstalled(all...))
			problems = []repro.Problem{c.Multi, c.Multi}
		case strings.HasPrefix(name, "sample/"):
			problems = []repro.Problem{c.Multi, c.Multi}
			memoized = true
		default:
			// An out-of-tree solver registered by some other test: its
			// problem kind is unknown here.
			continue
		}
		sess, err := repro.NewSession(name, opts...)
		if err != nil {
			return err
		}
		for step, pb := range problems {
			warm, err := sess.Resolve(ctx, pb)
			if err != nil {
				return fmt.Errorf("%s step %d: resolve: %w", name, step, err)
			}
			var cold *repro.Result
			if memoized && name != repro.SolverTapMaxCover {
				cold, err = c.solve(ctx, name, pb)
			} else {
				cold, err = repro.Solve(ctx, name, pb, opts...)
			}
			if err != nil {
				return fmt.Errorf("%s step %d: cold: %w", name, step, err)
			}
			if cappedSearch(warm, cold) {
				continue
			}
			w, err := canonicalAnswer(warm)
			if err != nil {
				return err
			}
			cd, err := canonicalAnswer(cold)
			if err != nil {
				return err
			}
			if w != cd {
				return fmt.Errorf("%s step %d (%s delta): warm answer diverged from cold\nwarm: %s\ncold: %s",
					name, step, sess.LastDelta().Class, w, cd)
			}
		}
	}
	return nil
}
