package repro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
)

// Portfolio races several registered solvers on the same problem and
// returns the best result available when the last one finishes or the
// deadline fires — the classical algorithm-portfolio approach: cheap
// heuristics guarantee an answer within any budget while the exact
// solver keeps improving on it for as long as the deadline allows.
//
// As soon as one member returns a proven-optimal result the others are
// canceled (they return their incumbents, which cannot beat a proven
// optimum). "Best" means: fewest devices, ties broken towards lower
// objective, then towards proven optimality.
type Portfolio struct {
	name    string
	members []string
}

// NewPortfolio builds a portfolio over the named registered solvers.
// Members are resolved at Solve time, so a portfolio may be constructed
// before all its members are registered.
//
// Members must share the minimizing objective of the placement solvers
// (fewest devices / lowest cost): that is what the result comparison
// and the optimal-finisher cancellation assume. Racing maximization
// solvers such as tap/max-coverage is not supported — the comparison
// would pick the worst member.
func NewPortfolio(name string, members ...string) *Portfolio {
	return &Portfolio{name: name, members: append([]string(nil), members...)}
}

// Name implements Solver.
func (p *Portfolio) Name() string { return p.name }

// Solve implements Solver: it runs every member concurrently under a
// shared context and picks the best result.
func (p *Portfolio) Solve(ctx context.Context, problem Problem, opts ...Option) (*Result, error) {
	if len(p.members) == 0 {
		return nil, fmt.Errorf("%s: empty portfolio", p.name)
	}
	solvers := make([]Solver, len(p.members))
	for i, name := range p.members {
		s, err := LookupSolver(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		solvers[i] = s
	}
	o := BuildOptions(opts)
	ctx, cancel := o.apply(ctx)
	defer cancel()

	start := time.Now()
	type outcome struct {
		res *Result
		err error
	}
	// The race runs on the scenario engine with one worker per member
	// (a portfolio's whole point is concurrent members under a shared
	// deadline); member failures are collected, not fatal, so the task
	// function never errors on its own — but the engine itself can fail
	// a task (fault injection at the engine/map/task point), and that
	// error must not vanish into an empty outcome scan.
	// Map returns outcomes in member order, which keeps the best-result
	// scan below deterministic.
	outcomes, mapErr := engine.Map(ctx, engine.New(engine.Options{Workers: len(solvers)}),
		len(solvers), func(ctx context.Context, i int) (outcome, error) {
			// Deadline options are already on ctx; members receive the
			// remaining (non-deadline) knobs through opts.
			res, err := solvers[i].Solve(ctx, problem, opts...)
			if err == nil && res.Optimal {
				// A proven optimum cannot be beaten: stop the rest.
				cancel()
			}
			return outcome{res, err}, nil
		})
	if mapErr != nil {
		return nil, fmt.Errorf("%s: %w", p.name, mapErr)
	}

	var best *Result
	var errs []error
	stats := Stats{Wall: time.Since(start)}
	for _, oc := range outcomes {
		if oc.err != nil {
			errs = append(errs, oc.err)
			continue
		}
		stats.Add(oc.res.Stats)
		if betterResult(oc.res, best) {
			best = oc.res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%s: all members failed: %w", p.name, errors.Join(errs...))
	}
	out := *best
	stats.Bound = best.Stats.Bound
	out.Stats = stats
	return &out, nil
}

// betterResult reports whether a beats b (b nil means a wins). Fewer
// devices first, then lower objective, then proven optimality.
func betterResult(a, b *Result) bool {
	if b == nil {
		return true
	}
	if a.Devices() != b.Devices() {
		return a.Devices() < b.Devices()
	}
	if a.Objective != b.Objective {
		return a.Objective < b.Objective
	}
	return a.Optimal && !b.Optimal
}
