package repro

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
)

// Runner is the facade over the deterministic parallel scenario engine
// (internal/engine): it schedules batch solves on a bounded worker
// pool, memoizes identical sub-solves behind canonical instance keys,
// and aggregates solver statistics across the batch. The same engine
// underlies the figure reproductions in internal/experiments and
// cmd/repro's -parallel flag; the Portfolio races its members on it
// too, so every concurrent code path in the repository shares one
// scheduling substrate.
//
// A Runner is safe for concurrent use. Results served from the cache
// are shared: treat every *Result from a batch as read-only.
type Runner struct {
	eng *engine.Runner
	// quarantined counts persistent-cache entries that failed envelope
	// verification on load and were moved aside (see persist.go).
	quarantined atomic.Int64
}

// runnerConfig collects the RunnerOption knobs.
type runnerConfig struct {
	workers  int
	cache    bool
	cacheDir string
}

// RunnerOption configures NewRunner.
type RunnerOption func(*runnerConfig)

// WithWorkers bounds the number of concurrent solves; n <= 0 means
// runtime.GOMAXPROCS(0). One worker is the deterministic serial
// baseline (batch results are identical either way — only the clock
// changes).
func WithWorkers(n int) RunnerOption { return func(c *runnerConfig) { c.workers = n } }

// WithoutCache disables solve memoization: every problem in every batch
// is solved from scratch.
func WithoutCache() RunnerOption { return func(c *runnerConfig) { c.cache = false } }

// WithCacheDir persists the solve cache under dir, content-addressed by
// the engine's canonical SHA-256 instance keys: every newly memoized
// result is written through to one JSON file (atomically), and a new
// runner over the same directory starts warm — the restart-surviving
// store placementd serves from. The directory is created if missing;
// when it cannot be created the runner degrades to memory-only
// caching. WithoutCache disables persistence too.
func WithCacheDir(dir string) RunnerOption { return func(c *runnerConfig) { c.cacheDir = dir } }

// NewRunner builds a batch runner; by default GOMAXPROCS workers and a
// memoizing solve cache.
func NewRunner(opts ...RunnerOption) *Runner {
	cfg := runnerConfig{cache: true}
	for _, fn := range opts {
		fn(&cfg)
	}
	r := &Runner{}
	var cache *engine.Cache
	if cfg.cache {
		cache = engine.NewCache()
		if cfg.cacheDir != "" {
			// Best-effort: an unusable directory leaves the cache
			// memory-only rather than failing the runner.
			_ = attachCacheDir(cache, cfg.cacheDir, &r.quarantined)
		}
	}
	r.eng = engine.New(engine.Options{Workers: cfg.workers, Cache: cache})
	return r
}

// Workers returns the runner's concurrency bound.
func (r *Runner) Workers() int { return r.eng.Workers() }

// CacheCounts returns the solve cache's hit and miss counters (both 0
// when the runner was built WithoutCache).
func (r *Runner) CacheCounts() (hits, misses int64) {
	if c := r.eng.Cache(); c != nil {
		return c.Counts()
	}
	return 0, 0
}

// CacheQuarantined returns how many persistent-cache entries failed
// verification on load and were quarantined instead of served (always
// 0 without WithCacheDir).
func (r *Runner) CacheQuarantined() int64 { return r.quarantined.Load() }

// BatchStats returns the aggregated effort counters of every solve the
// runner executed (cache hits do not count twice: memoized solves
// report their effort once, when actually performed).
func (r *Runner) BatchStats() Stats { return r.eng.Stats() }

// SolveBatch solves every problem with the named registered solver on
// the runner's worker pool and returns the results in input order —
// the order-independent merge: results[i] always belongs to
// problems[i], bit-identical to a serial loop of Solve calls,
// regardless of worker count or completion order.
//
// Identical problems (same canonical instance hash, same options) are
// solved once and served from the cache. Time-bounded solves
// (WithDeadline / WithTimeout) are never cached: their results depend
// on the clock, and a memoized incumbent must not masquerade as a
// fresh solve under a different budget. The first failing problem
// (lowest index, deterministically) aborts the batch.
func (r *Runner) SolveBatch(ctx context.Context, solver string, problems []Problem, opts ...Option) ([]*Result, error) {
	// Validate the whole batch up front: a bad entry should name itself
	// by index here, not surface as a solver type error from deep inside
	// the engine after the problems below it were already solved.
	if solver == "" {
		return nil, fmt.Errorf("repro: SolveBatch: empty solver name (known: %v)", Solvers())
	}
	for i, p := range problems {
		if p == nil {
			return nil, fmt.Errorf("repro: SolveBatch: problem %d is nil", i)
		}
	}
	s, err := LookupSolver(solver)
	if err != nil {
		return nil, err
	}
	o := BuildOptions(opts)
	// The cache must never serve a clock-dependent result: bypass it
	// when the solve is bounded by the batch options OR by a deadline
	// already on the caller's context. Session warm solves get the same
	// treatment — a result produced with injected warm artifacts carries
	// different effort counters, so it must never be memoized under (or
	// served from) a cold solve's key.
	_, ctxDeadline := ctx.Deadline()
	timeBounded := !o.Deadline.IsZero() || o.Timeout > 0 || ctxDeadline || o.sessionWarm()
	return engine.Map(ctx, r.eng, len(problems), func(ctx context.Context, i int) (*Result, error) {
		p := problems[i]
		key := ""
		if !timeBounded {
			// Unknown problem kinds (custom solvers) have no canonical
			// key; they bypass the cache rather than risk a false hit.
			key, _ = engine.Key(solver, p, o.Coverage, o.Budget, o.Installed, o.Gap, o.Seed, o.MaxNodes)
		}
		if key == "" || r.eng.Cache() == nil {
			res, err := solveWithFallback(ctx, s, p, opts)
			if err == nil {
				r.eng.AddStats(res.Stats)
			}
			return res, err
		}
		// CachedUnlessCanceled hands back (without retaining) a result
		// degraded by the caller's ctx firing mid-solve: a memoized
		// incumbent must never masquerade as a fresh solve for a later,
		// unhurried batch. Fallback-degraded results get the same
		// treatment via WithoutCaching: they are answers for THIS
		// request, not memoized truth under the primary solver's key.
		v, err := r.eng.CachedUnlessCanceled(ctx, key, func() (any, error) {
			res, err := solveWithFallback(ctx, s, p, opts)
			if err == nil {
				r.eng.AddStats(res.Stats)
			}
			if err == nil && res.Degraded {
				return nil, engine.WithoutCaching(res)
			}
			return res, err
		})
		if err != nil {
			return nil, err
		}
		// Hand each caller its own shallow copy so one batch entry
		// cannot corrupt the memoized result of another.
		cp := *v.(*Result)
		return &cp, nil
	})
}

// SolveBatch is the one-call form of Runner.SolveBatch on a fresh
// default runner (GOMAXPROCS workers, per-call cache):
//
//	results, err := repro.SolveBatch(ctx, "tap/exact", problems,
//	        repro.WithCoverage(0.95))
func SolveBatch(ctx context.Context, solver string, problems []Problem, opts ...Option) ([]*Result, error) {
	return NewRunner().SolveBatch(ctx, solver, problems, opts...)
}
