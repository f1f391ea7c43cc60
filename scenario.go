package repro

import "repro/internal/scenario"

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
