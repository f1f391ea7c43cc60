package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/traffic"
)

// The -churn-steps replay: the session re-optimization path (DESIGN.md
// §10) end to end on the churn family's benchmark workload. Each step
// re-weights the demand matrix (volumes in [0.8, 1.25], rows kept — a
// DeltaRescale mutation) and re-solves twice: warm through a
// repro.Session, cold through repro.Solve. The two answers must agree
// whenever both close; the replay errors out on divergence, so the
// mode doubles as a command-line form of the resolve==cold lock.
//
// Stdout carries only deterministic bytes (delta class, devices,
// moves, effort counters); wall clock and the warm/cold speedup go to
// stderr with the rest of the timing.

const (
	churnReplayK    = 0.95
	churnReplaySize = 20
	churnReplaySeed = 4
)

// churnReplayStats aggregates the replay over steps 1..N (step 0 is
// cold for both sides and excluded, as in BenchmarkChurnResolve): each
// side's wall time and the warm side's summed effort counters.
type churnReplayStats struct {
	ColdWall, WarmWall time.Duration
	repro.Stats
}

func churnReplay(ctx context.Context, steps int, out, progress io.Writer) (churnReplayStats, error) {
	var st churnReplayStats
	s, err := repro.GenerateScenario("churn", churnReplaySize, churnReplaySeed)
	if err != nil {
		return st, err
	}
	sess, err := repro.NewSession(repro.SolverTapExact, repro.WithCoverage(churnReplayK))
	if err != nil {
		return st, err
	}
	fmt.Fprintf(out, "# session re-optimization: churn-%d seed %d, k=%.2f, %d rescale steps (warm Resolve vs cold Solve)\n",
		churnReplaySize, churnReplaySeed, churnReplayK, steps)
	fmt.Fprintf(out, "%-5s %-10s %-8s %-7s %-6s %-12s %-12s %-10s\n",
		"step", "delta", "optimal", "devices", "moves", "nodes c/w", "pivots c/w", "warmstarts")

	dem := s.Demands
	var prev *repro.Result
	for step := 0; step <= steps; step++ {
		if step > 0 {
			mutated, _, err := traffic.ChurnWithDelta(s.POP, dem, traffic.ChurnConfig{
				Seed: s.Seed + int64(step), Drop: 1e-12, Add: 1e-12,
				RescaleLow: 0.8, RescaleHigh: 1.25,
			})
			if err != nil {
				return st, err
			}
			dem = mutated
		}
		in, err := repro.RouteSingle(s.POP, traffic.Aggregate(dem))
		if err != nil {
			return st, err
		}
		t0 := time.Now()
		warm, err := sess.Resolve(ctx, in)
		if err != nil {
			return st, err
		}
		dw := time.Since(t0)
		t0 = time.Now()
		cold, err := repro.Solve(ctx, repro.SolverTapExact, in, repro.WithCoverage(churnReplayK))
		if err != nil {
			return st, err
		}
		dc := time.Since(t0)
		if warm.Optimal && cold.Optimal {
			if len(warm.Taps.Edges) != len(cold.Taps.Edges) || warm.Taps.Covered != cold.Taps.Covered {
				return st, fmt.Errorf("step %d: warm resolve diverged from cold (%d devices %.4f vs %d devices %.4f)",
					step, len(warm.Taps.Edges), warm.Taps.Covered, len(cold.Taps.Edges), cold.Taps.Covered)
			}
			for i := range warm.Taps.Edges {
				if warm.Taps.Edges[i] != cold.Taps.Edges[i] {
					return st, fmt.Errorf("step %d: warm placement diverged from cold at device %d", step, i)
				}
			}
		}
		diff := warm.Diff(prev)
		fmt.Fprintf(out, "%-5d %-10s %-8v %-7d %-6d %5d/%-6d %5d/%-6d %-10d\n",
			step, sess.LastDelta().Class, warm.Optimal, len(warm.Taps.Edges), diff.Moves(),
			cold.Stats.Nodes, warm.Stats.Nodes, cold.Stats.Pivots, warm.Stats.Pivots, warm.Stats.WarmStarts)
		prev = warm
		if step > 0 {
			st.ColdWall += dc
			st.WarmWall += dw
			st.Add(warm.Stats)
		}
	}
	speedup := 0.0
	if st.WarmWall > 0 {
		speedup = float64(st.ColdWall) / float64(st.WarmWall)
	}
	fmt.Fprintf(progress, "repro: churn replay cold %v warm %v (%.1fx) over %d steps, warmstarts=%d\n",
		st.ColdWall, st.WarmWall, speedup, steps, st.WarmStarts)
	return st, nil
}
