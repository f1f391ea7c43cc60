package repro

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
)

// Problem is the instance a Solver consumes. The built-in solvers accept
// *Instance (PPM(k) tap placement, §4), *MultiInstance (PPME sampling
// placement, §5), and ProbeSet or *ProbeSet (beacon placement, §6); a
// solver returns an error for a problem kind it does not understand.
type Problem any

// Solver is the unified solving interface: every algorithm of the paper
// is exposed as a named Solver registered in the package registry.
// Solve must honour ctx — on cancellation or deadline expiry it returns
// the best incumbent found so far (Result.Optimal == false) rather than
// nothing, whenever the algorithm has one.
type Solver interface {
	// Name is the registry key, e.g. "tap/ilp".
	Name() string
	// Solve solves the problem under the context and options.
	Solve(ctx context.Context, problem Problem, opts ...Option) (*Result, error)
}

// Stats reports how hard a solve was: the effort counters, the proven
// bound and the wall time (see core.SolveStats for each field).
type Stats = core.SolveStats

// Result is the unified outcome of a Solve: the placement for the
// problem family that was solved, plus solver statistics. Exactly one
// of Taps, Sampling, Beacons is non-nil.
type Result struct {
	// Solver is the name of the solver that produced the result (for a
	// portfolio, the winning member).
	Solver string

	// Taps is set by PPM(k) solvers.
	Taps *TapPlacement
	// Sampling is set by PPME solvers.
	Sampling *SamplingSolution
	// Beacons is set by beacon-placement solvers.
	Beacons *BeaconPlacement

	// Objective is the solver's objective value: devices placed for tap
	// and beacon solvers, monitored volume for tap/max-coverage, total
	// cost for sampling solvers.
	Objective float64
	// Bound is the best proven bound on the objective; equal to
	// Objective when Optimal, meaningful otherwise only for exact
	// solvers stopped early. Gap is |Objective − Bound|.
	Bound float64
	Gap   float64
	// Optimal is true when the result is provably optimal — within the
	// configured absolute Gap when one was set (WithGap), exactly
	// otherwise. A canceled or budget-capped exact solve reports its
	// best incumbent with Optimal == false.
	Optimal bool
	// Stats carries the effort counters.
	Stats Stats

	// Degraded is true when the primary solver failed and this result
	// came from a fallback in the WithFallback ladder; FallbackSolver
	// then names the solver that actually answered (Solver keeps the
	// name the caller asked for, so provenance survives downstream
	// routing on the requested solver).
	Degraded       bool
	FallbackSolver string
}

// Devices returns the number of devices (taps, sampling devices, or
// beacons) in whichever placement the result carries.
func (r *Result) Devices() int {
	switch {
	case r.Taps != nil:
		return r.Taps.Devices()
	case r.Sampling != nil:
		return r.Sampling.Devices()
	case r.Beacons != nil:
		return r.Beacons.Devices()
	}
	return 0
}

// Options collects the knobs shared by all solvers. Build one with the
// With* functional options; zero fields mean solver defaults.
type Options struct {
	// Deadline bounds the solve in absolute time; Timeout in relative
	// time. When both are set the earlier one wins. Solvers stopped by
	// either return their best incumbent with Optimal == false.
	Deadline time.Time
	Timeout  time.Duration
	// Coverage is the fraction k of total traffic volume to monitor,
	// in (0,1]. Default 1 (monitor everything).
	Coverage float64
	// Budget caps the number of devices (tap ILP) or is the number of
	// devices to place (tap/max-coverage). 0 = unlimited.
	Budget int
	// Installed lists links already carrying a device (incremental
	// placement, §4.3).
	Installed []EdgeID
	// Gap is the absolute optimality gap for branch-and-bound pruning.
	Gap float64
	// RelGap is the relative optimality gap: pruning uses
	// Gap + RelGap·|incumbent|, so it scales with the objective on
	// large instances. 0 disables it.
	RelGap float64
	// Seed drives randomized solvers (tap/rounding).
	Seed int64
	// MaxNodes caps branch-and-bound nodes (0 = solver default).
	MaxNodes int
	// Fallback is the graceful-degradation ladder: registered solver
	// names tried in order when the primary solve errors (see
	// WithFallback). Results answered by the ladder are stamped
	// Degraded and are never memoized.
	Fallback []string

	// Session-injected warm artifacts (set only by Session, never by a
	// public With* option): warmCover seeds the exact-cover search's
	// root LP with the previous solve's basis, captureCover receives
	// this solve's basis for the next Resolve. The
	// fields are unexported on purpose — the warm path is sound only
	// under the Delta validity rules Session enforces, and batch caching
	// keys must never see a warm solve as a cold one (batch.go bypasses
	// the cache whenever they are set).
	warmCover    *cover.Warm
	captureCover *cover.Capture
}

// sessionWarm reports whether session artifacts ride on this solve (the
// cache-bypass trigger in batch.go).
func (o Options) sessionWarm() bool { return o.warmCover != nil || o.captureCover != nil }

// Option mutates Options; see WithDeadline and friends.
type Option func(*Options)

// WithDeadline bounds the solve in absolute time.
func WithDeadline(t time.Time) Option { return func(o *Options) { o.Deadline = t } }

// WithTimeout bounds the solve in relative wall-clock time.
func WithTimeout(d time.Duration) Option { return func(o *Options) { o.Timeout = d } }

// WithCoverage sets the monitored-volume floor k ∈ (0,1].
func WithCoverage(k float64) Option { return func(o *Options) { o.Coverage = k } }

// WithBudget caps (or, for tap/max-coverage, sets) the device count.
func WithBudget(n int) Option { return func(o *Options) { o.Budget = n } }

// WithInstalled marks links that already carry a device.
func WithInstalled(edges ...EdgeID) Option {
	return func(o *Options) { o.Installed = append([]EdgeID(nil), edges...) }
}

// WithGap sets the absolute optimality gap for exact solvers.
func WithGap(g float64) Option { return func(o *Options) { o.Gap = g } }

// WithRelGap sets the relative optimality gap for exact solvers.
func WithRelGap(g float64) Option { return func(o *Options) { o.RelGap = g } }

// WithSeed seeds randomized solvers.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithMaxNodes caps the branch-and-bound node budget.
func WithMaxNodes(n int) Option { return func(o *Options) { o.MaxNodes = n } }

// WithFallback installs a graceful-degradation ladder: when the
// primary solver returns an error (including a timeout with no
// incumbent to degrade to), Solve and SolveBatch fall through the
// named registered solvers in order and return the first success,
// stamped Degraded with FallbackSolver provenance. When the whole
// ladder fails too, the joined errors surface. Degraded results are
// never cached: once the primary recovers, fresh solves win again.
func WithFallback(solvers ...string) Option {
	return func(o *Options) { o.Fallback = append([]string(nil), solvers...) }
}

// BuildOptions applies opts to the defaults and returns the resulting
// Options (exported so custom Solver implementations can reuse it).
func BuildOptions(opts []Option) Options {
	o := Options{Coverage: 1}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// apply installs the option deadline/timeout onto ctx. The returned
// cancel must always be called.
func (o Options) apply(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := func() {}
	if !o.Deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, o.Deadline)
	}
	if o.Timeout > 0 {
		c2 := cancel
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		prev := cancel
		cancel = func() { prev(); c2() }
	}
	return ctx, cancel
}

// ---- registry ----

var solverRegistry = struct {
	sync.RWMutex
	m map[string]Solver
}{m: make(map[string]Solver)}

// RegisterSolver adds s to the package registry under s.Name(). It
// errors on an empty or already-taken name.
func RegisterSolver(s Solver) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("repro: solver with empty name")
	}
	solverRegistry.Lock()
	defer solverRegistry.Unlock()
	if _, dup := solverRegistry.m[name]; dup {
		return fmt.Errorf("repro: solver %q already registered", name)
	}
	solverRegistry.m[name] = s
	return nil
}

func mustRegister(s Solver) {
	if err := RegisterSolver(s); err != nil {
		panic(err)
	}
}

// LookupSolver returns the registered solver by name.
func LookupSolver(name string) (Solver, error) {
	solverRegistry.RLock()
	defer solverRegistry.RUnlock()
	s, ok := solverRegistry.m[name]
	if !ok {
		return nil, fmt.Errorf("repro: unknown solver %q (known: %v)", name, solverNamesLocked())
	}
	return s, nil
}

// Solvers lists all registered solver names, sorted.
func Solvers() []string {
	solverRegistry.RLock()
	defer solverRegistry.RUnlock()
	return solverNamesLocked()
}

func solverNamesLocked() []string {
	names := make([]string, 0, len(solverRegistry.m))
	for n := range solverRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Solve looks up a registered solver by name and runs it — the
// one-call form the CLIs and examples use:
//
//	res, err := repro.Solve(ctx, "tap/ilp", in,
//	        repro.WithCoverage(0.95), repro.WithTimeout(time.Second))
func Solve(ctx context.Context, solver string, problem Problem, opts ...Option) (*Result, error) {
	s, err := LookupSolver(solver)
	if err != nil {
		return nil, err
	}
	return solveWithFallback(ctx, s, problem, opts)
}

// SolverFunc adapts a plain function into a registrable Solver. The
// function receives the already-built Options; the deadline and timeout
// options are installed on ctx before the call.
type SolverFunc struct {
	SolverName string
	Fn         func(ctx context.Context, problem Problem, o Options) (*Result, error)
}

// Name implements Solver.
func (s SolverFunc) Name() string { return s.SolverName }

// Solve implements Solver.
func (s SolverFunc) Solve(ctx context.Context, problem Problem, opts ...Option) (*Result, error) {
	o := BuildOptions(opts)
	ctx, cancel := o.apply(ctx)
	defer cancel()
	start := time.Now()
	res, err := s.Fn(ctx, problem, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.SolverName, err)
	}
	res.Solver = s.SolverName
	res.Stats.Wall = time.Since(start)
	return res, nil
}
