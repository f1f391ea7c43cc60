package repro

import (
	"context"
	"fmt"
	"math"

	"repro/internal/active"
	"repro/internal/cover"
	"repro/internal/passive"
	"repro/internal/sampling"
)

// Built-in solver names. Tap solvers consume *Instance, beacon solvers
// ProbeSet (or *ProbeSet), sampling solvers *MultiInstance.
const (
	SolverTapGreedyLoad = "tap/greedy-load"
	SolverTapGreedyGain = "tap/greedy-gain"
	SolverTapFlow       = "tap/flow-heuristic"
	SolverTapILP        = "tap/ilp"
	SolverTapILPArcPath = "tap/ilp-lp1"
	SolverTapExact      = "tap/exact"
	SolverTapRounding   = "tap/rounding"
	SolverTapMaxCover   = "tap/max-coverage"
	SolverTapPortfolio  = "tap/portfolio"

	SolverBeaconThiran = "beacon/thiran"
	SolverBeaconGreedy = "beacon/greedy"
	SolverBeaconILP    = "beacon/ilp"

	SolverSamplePPME  = "sample/ppme"
	SolverSampleRates = "sample/rates"
)

func init() {
	tap := func(name string, fn func(ctx context.Context, in *Instance, o Options) (TapPlacement, error)) {
		mustRegister(SolverFunc{SolverName: name, Fn: func(ctx context.Context, problem Problem, o Options) (*Result, error) {
			in, err := tapInstance(problem)
			if err != nil {
				return nil, err
			}
			if o.Coverage <= 0 || o.Coverage > 1 {
				return nil, fmt.Errorf("coverage %g outside (0,1]", o.Coverage)
			}
			pl, err := fn(ctx, in, o)
			if err != nil {
				return nil, err
			}
			return tapResult(pl), nil
		}})
	}

	tap(SolverTapGreedyLoad, func(_ context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.GreedyLoad(in, o.Coverage), nil
	})
	tap(SolverTapGreedyGain, func(_ context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.GreedyGain(in, o.Coverage), nil
	})
	tap(SolverTapFlow, func(_ context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.FlowHeuristic(in, o.Coverage), nil
	})
	tap(SolverTapILP, func(ctx context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.SolveILP(ctx, in, o.Coverage, ilpOptions(passive.LP2, o))
	})
	tap(SolverTapILPArcPath, func(ctx context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.SolveILP(ctx, in, o.Coverage, ilpOptions(passive.LP1, o))
	})
	tap(SolverTapExact, func(ctx context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.ExactCover(ctx, in, o.Coverage, cover.ExactOptions{
			MaxNodes: o.MaxNodes,
			Warm:     o.warmCover,
			Capture:  o.captureCover,
		}), nil
	})
	tap(SolverTapRounding, func(ctx context.Context, in *Instance, o Options) (TapPlacement, error) {
		return passive.RandomizedRounding(ctx, in, o.Coverage, o.Seed)
	})

	// tap/max-coverage ignores Coverage: it maximizes monitored volume
	// under the device budget instead of minimizing devices under a
	// coverage floor.
	mustRegister(SolverFunc{SolverName: SolverTapMaxCover, Fn: func(ctx context.Context, problem Problem, o Options) (*Result, error) {
		in, err := tapInstance(problem)
		if err != nil {
			return nil, err
		}
		pl, err := passive.MaxCoverage(ctx, in, o.Budget, o.Installed)
		if err != nil {
			return nil, err
		}
		res := tapResult(pl)
		res.Objective = pl.Covered
		res.Gap = gapOf(res.Objective, res.Bound, res.Optimal)
		return res, nil
	}})

	mustRegister(NewPortfolio(SolverTapPortfolio,
		SolverTapGreedyGain, SolverTapFlow, SolverTapILP))

	beacon := func(name string, fn func(ctx context.Context, ps ProbeSet, o Options) (BeaconPlacement, error)) {
		mustRegister(SolverFunc{SolverName: name, Fn: func(ctx context.Context, problem Problem, o Options) (*Result, error) {
			ps, err := probeSet(problem)
			if err != nil {
				return nil, err
			}
			pl, err := fn(ctx, ps, o)
			if err != nil {
				return nil, err
			}
			return beaconResult(pl), nil
		}})
	}
	beacon(SolverBeaconThiran, func(_ context.Context, ps ProbeSet, _ Options) (BeaconPlacement, error) {
		return active.PlaceThiran(ps)
	})
	beacon(SolverBeaconGreedy, func(_ context.Context, ps ProbeSet, _ Options) (BeaconPlacement, error) {
		return active.PlaceGreedy(ps)
	})
	beacon(SolverBeaconILP, func(ctx context.Context, ps ProbeSet, o Options) (BeaconPlacement, error) {
		return active.PlaceILPOpts(ctx, ps, active.ILPOptions{MaxNodes: o.MaxNodes, Gap: o.Gap, RelGap: o.RelGap})
	})

	mustRegister(SolverFunc{SolverName: SolverSamplePPME, Fn: func(ctx context.Context, problem Problem, o Options) (*Result, error) {
		mi, err := multiInstance(problem)
		if err != nil {
			return nil, err
		}
		sol, err := sampling.Solve(ctx, mi, sampling.Config{K: o.Coverage, MaxNodes: o.MaxNodes, Gap: o.Gap, RelGap: o.RelGap})
		if err != nil {
			return nil, err
		}
		return samplingResult(sol), nil
	}})
	mustRegister(SolverFunc{SolverName: SolverSampleRates, Fn: func(ctx context.Context, problem Problem, o Options) (*Result, error) {
		mi, err := multiInstance(problem)
		if err != nil {
			return nil, err
		}
		sol, err := sampling.SolveRates(ctx, mi, o.Installed, sampling.Config{K: o.Coverage})
		if err != nil {
			return nil, err
		}
		return samplingResult(sol), nil
	}})
}

func tapInstance(problem Problem) (*Instance, error) {
	in, ok := problem.(*Instance)
	if !ok {
		return nil, fmt.Errorf("want *repro.Instance, got %T", problem)
	}
	return in, nil
}

func multiInstance(problem Problem) (*MultiInstance, error) {
	mi, ok := problem.(*MultiInstance)
	if !ok {
		return nil, fmt.Errorf("want *repro.MultiInstance, got %T", problem)
	}
	return mi, nil
}

func probeSet(problem Problem) (ProbeSet, error) {
	switch ps := problem.(type) {
	case ProbeSet:
		return ps, nil
	case *ProbeSet:
		return *ps, nil
	}
	return ProbeSet{}, fmt.Errorf("want repro.ProbeSet, got %T", problem)
}

func ilpOptions(f passive.Formulation, o Options) passive.ILPOptions {
	return passive.ILPOptions{
		Formulation: f,
		Installed:   o.Installed,
		Budget:      o.Budget,
		MaxNodes:    o.MaxNodes,
		Gap:         o.Gap,
		RelGap:      o.RelGap,
	}
}

func tapResult(pl TapPlacement) *Result {
	res := newResult(float64(pl.Devices()), pl.Exact, &pl.Stats)
	res.Taps = &pl
	return res
}

func beaconResult(pl BeaconPlacement) *Result {
	res := newResult(float64(pl.Devices()), pl.Exact, &pl.Stats)
	res.Beacons = &pl
	return res
}

func samplingResult(sol *SamplingSolution) *Result {
	res := newResult(sol.Cost, sol.Exact, &sol.Stats)
	res.Sampling = sol
	return res
}

// newResult builds the Result of a placement with effort counters st.
// It first normalizes st's bound to the finite sentinel, so the Result
// and the placement it carries are always JSON-marshalable (the service
// and the persistent cache serialize them; ±Inf has no JSON encoding).
func newResult(objective float64, optimal bool, st *Stats) *Result {
	st.Bound = finiteBound(st.Bound)
	res := &Result{Objective: objective, Bound: st.Bound, Optimal: optimal, Stats: *st}
	res.Gap = gapOf(res.Objective, res.Bound, res.Optimal)
	return res
}

// gapOf returns |objective − bound| for early-stopped exact solves and
// 0 when the result is proven optimal or the solver computed no bound
// (zero or non-finite, e.g. a solve canceled before its root
// relaxation finished).
func gapOf(objective, bound float64, optimal bool) float64 {
	if optimal || bound == 0 || math.IsInf(bound, 0) || math.IsNaN(bound) {
		return 0
	}
	return math.Abs(objective - bound)
}

// finiteBound maps a solver's "no bound proven" infinities to the zero
// sentinel the Result documentation promises.
func finiteBound(bound float64) float64 {
	if math.IsInf(bound, 0) || math.IsNaN(bound) {
		return 0
	}
	return bound
}
