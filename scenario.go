package repro

import (
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// ChurnDelta records the mutation a churn step applied (rows dropped
// and added, rescale-factor range) — see traffic.ChurnWithDelta.
type ChurnDelta = traffic.ChurnDelta

// Scenario-family subsystem (internal/scenario): seeded workload
// generators beyond the paper's two Rocketfuel-derived sizes,
// addressed — like solvers — through a string-keyed registry.
type (
	// Scenario is one generated workload: POP + demands + the
	// (family, size, seed) triple that reproduces both. Its Instance
	// and MultiInstance methods route it into solver problems.
	Scenario = scenario.Scenario
	// ScenarioFamily is a named, seeded workload generator.
	ScenarioFamily = scenario.Family
)

// ScenarioFamilies lists the registered scenario families, sorted
// ("barabasi", "churn", "fattree", "metro", "pop", "waxman" built in).
func ScenarioFamilies() []string { return scenario.Families() }

// RegisterScenarioFamily adds a custom workload family to the
// registry.
func RegisterScenarioFamily(f ScenarioFamily) error { return scenario.Register(f) }

// GenerateScenario draws the (family, size, seed) scenario:
//
//	s, err := repro.GenerateScenario("waxman", 40, 7)
//	in, err := s.Instance()
//	res, err := repro.Solve(ctx, "tap/ilp", in, repro.WithCoverage(0.95))
func GenerateScenario(family string, size int, seed int64) (*Scenario, error) {
	return scenario.Generate(family, size, seed)
}

// ChurnSteps builds a churn replay chain from a scenario: element 0 is
// the scenario's base instance, element i > 0 is the instance after i
// successive traffic.Churn mutations (drop/add/rescale, seeded from
// the scenario seed — deterministic in (scenario, steps)). deltas[i-1]
// records what mutation produced chain[i]. This is the workload
// Session.Resolve exists for: feed chain[0] to Solve and the rest to
// Resolve, and compare Stats against cold solves of the same chain.
func ChurnSteps(s *Scenario, steps int) (chain []*Instance, deltas []ChurnDelta, err error) {
	dem := s.Demands
	in, err := RouteSingle(s.POP, traffic.Aggregate(dem))
	if err != nil {
		return nil, nil, err
	}
	chain = append(chain, in)
	for step := 1; step <= steps; step++ {
		mutated, delta, err := traffic.ChurnWithDelta(s.POP, dem, traffic.ChurnConfig{Seed: s.Seed + int64(step)})
		if err != nil {
			return nil, nil, err
		}
		in, err := RouteSingle(s.POP, traffic.Aggregate(mutated))
		if err != nil {
			return nil, nil, err
		}
		chain = append(chain, in)
		deltas = append(deltas, delta)
		dem = mutated
	}
	return chain, deltas, nil
}

// ScenarioBatch generates one single-routed instance per seed of one
// family and size, as a Problem slice ready for Runner.SolveBatch —
// the batch form the scenario sweeps use:
//
//	problems, err := repro.ScenarioBatch("waxman", 40, []int64{1, 2, 3})
//	results, err := repro.SolveBatch(ctx, "tap/portfolio", problems,
//	        repro.WithCoverage(0.95))
func ScenarioBatch(family string, size int, seeds []int64) ([]Problem, error) {
	problems := make([]Problem, 0, len(seeds))
	for _, seed := range seeds {
		s, err := GenerateScenario(family, size, seed)
		if err != nil {
			return nil, err
		}
		in, err := s.Instance()
		if err != nil {
			return nil, err
		}
		problems = append(problems, in)
	}
	return problems, nil
}
