// Package engine is the deterministic parallel scenario runner behind
// the figure reproductions and the facade's batch API. It schedules
// independent solve cells (seed × sweep-point fan-out) on a bounded
// worker pool, returns results in task-index order so any merge over
// them is bit-identical to a serial run, memoizes solves behind a
// canonical instance key (see key.go), and aggregates core.SolveStats
// across the batch.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
)

// Options configures a Runner. The zero value is usable: GOMAXPROCS
// workers and no cache.
type Options struct {
	// Workers bounds the number of concurrent tasks per Map call;
	// <= 0 means runtime.GOMAXPROCS(0). Workers == 1 is the serial
	// baseline: Map degenerates to an in-order loop on the calling
	// goroutine's clock but with identical scheduling semantics, so
	// parallel and serial runs produce byte-identical merges.
	Workers int
	// Cache, when non-nil, memoizes solves keyed by canonical instance
	// hashes. Tasks opt in through Runner.Cached.
	Cache *Cache
}

// Runner is a deterministic parallel scheduler. It is safe for
// concurrent use; Map calls spawn their own bounded goroutine set, so
// nested Map calls (a portfolio inside an experiment cell) cannot
// deadlock on a shared pool.
type Runner struct {
	workers int
	cache   *Cache

	mu    sync.Mutex
	stats core.SolveStats
	tasks int64
}

// New builds a Runner from opts.
func New(opts Options) *Runner {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: w, cache: opts.Cache}
}

// Serial returns a single-worker runner with a fresh memoizing cache —
// the deterministic baseline parallel runs are compared against. It
// memoizes exactly like the default parallel runner (the historical
// serial loops also built each seed's instance once), so serial vs
// parallel comparisons differ only in worker count.
func Serial() *Runner { return New(Options{Workers: 1, Cache: NewCache()}) }

// Workers returns the concurrency bound of the runner.
func (r *Runner) Workers() int { return r.workers }

// Cache returns the runner's solve cache (nil when memoization is off).
func (r *Runner) Cache() *Cache { return r.cache }

// AddStats folds one solve's effort counters into the batch aggregate
// (see core.SolveStats.Add).
func (r *Runner) AddStats(st core.SolveStats) {
	r.mu.Lock()
	r.stats.Add(st)
	r.mu.Unlock()
}

// Stats returns the aggregated core.SolveStats of every solve reported
// through AddStats since the runner was built.
func (r *Runner) Stats() core.SolveStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Tasks returns the number of Map tasks the runner has completed.
func (r *Runner) Tasks() int64 { return atomic.LoadInt64(&r.tasks) }

// Cached memoizes compute under the runner's cache; with no cache it
// just computes (callers relying on memoization for cost parity — e.g.
// one instance build shared by a seed's sweep points — should hand the
// runner a cache). All callers sharing a key receive the same value, so
// cached computations must produce results that are safe for shared
// read-only use. A compute returning WithoutCaching(v) hands v back
// without retaining it.
func (r *Runner) Cached(key string, compute func() (any, error)) (any, error) {
	if r.cache == nil {
		return unwrapUncached(compute())
	}
	return unwrapUncached(r.cache.Do(key, compute))
}

// CachedUnlessCanceled memoizes compute like Cached, except that when
// ctx is canceled or expired by the time compute returns, the value is
// handed back WITHOUT being retained: a solver interrupted by its
// context returns a clock-dependent degraded incumbent, and a memoized
// incumbent must never masquerade as a fresh solve for a later,
// unhurried caller. Use it for every memoized computation that
// consults ctx; Cached is for ctx-independent builds.
func (r *Runner) CachedUnlessCanceled(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	if r.cache == nil {
		return unwrapUncached(compute())
	}
	return unwrapUncached(r.cache.Do(key, func() (any, error) {
		v, err := compute()
		if err == nil && ctx.Err() != nil {
			return nil, &uncachedValue{v}
		}
		return v, err
	}))
}

// WithoutCaching wraps v in the error Cached and CachedUnlessCanceled
// recognize as "return this value to every current waiter, but do not
// retain it": the single-flight semantics hold for the in-flight
// callers, and the next caller with the same key computes fresh. It is
// the mechanism behind both cancellation-degraded solves and
// fallback-degraded results — values that are usable now but must not
// masquerade as authoritative later.
func WithoutCaching(v any) error { return &uncachedValue{v} }

// unwrapUncached converts the WithoutCaching error back into its value.
func unwrapUncached(v any, err error) (any, error) {
	var u *uncachedValue
	if errors.As(err, &u) {
		return u.v, nil
	}
	return v, err
}

// uncachedValue rides the cache's error path so a usable but
// clock-dependent value is returned without being retained.
type uncachedValue struct{ v any }

func (u *uncachedValue) Error() string { return "engine: value returned without caching" }

// Map runs fn(ctx, i) for every i in [0, n) on at most r.Workers()
// concurrent goroutines and returns the results in index order — the
// order-independent merge: whatever order tasks finish in, the caller
// always folds results 0, 1, 2, … exactly as a serial loop would.
//
// On a task error Map skips tasks above the failing index (their
// results would be discarded), still runs every task below it, and
// returns the error of the lowest-indexed failing task — deterministic
// regardless of schedule. A task panic is captured on the worker and
// re-raised on the calling goroutine as a *TaskPanic carrying the
// original value and the worker's stack (lowest panicking index wins
// over a higher-indexed error), so callers can recover exactly as they
// could around the historical serial loops and no worker panic can
// kill the process behind the caller's back. Cancellation of the
// parent ctx does NOT abort scheduling:
// the paper's solvers degrade to their incumbents on an expired
// context, so every cell still reports a (degraded) value and the merged
// series stays complete, exactly like the serial path.
func Map[T any](ctx context.Context, r *Runner, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	res, _, err := mapOn(ctx, r, n, func(ctx context.Context, i, _ int) (T, error) {
		// Inject point: a worker task stalling, erroring, or dying.
		// Deliberately on Map only, not MapTree — Map's callers handle
		// task errors through the documented lowest-failing-index path,
		// while MapTree's tree-search callers fold subtree reports into
		// exactness proofs and must never see a fabricated failure.
		if err := fault.Hit(fault.PointEngineTask).Apply(); err != nil {
			var zero T
			return zero, err
		}
		return fn(ctx, i)
	})
	return res, err
}

// TreeStats reports the scheduling counters of one MapTree call.
type TreeStats struct {
	// Tasks is the number of tasks that completed successfully.
	Tasks int
	// Steals counts tasks executed by a worker other than their
	// round-robin home (task i's home is worker i % workers): the
	// load-balancing traffic of the shared task queue. Always 0 on a
	// single worker.
	Steals int
}

// MapTree is Map for tree-search fan-out: fn additionally receives the
// executing worker's index (0..Workers-1) and the call reports
// scheduling counters — how many subtree tasks completed and how many
// were "stolen" (run by a worker other than the task's round-robin
// home). Ordering, error, panic, and cancellation semantics are
// identical to Map, so merges over the results stay byte-identical for
// any worker count.
func MapTree[T any](ctx context.Context, r *Runner, n int, fn func(ctx context.Context, i, worker int) (T, error)) ([]T, TreeStats, error) {
	return mapOn(ctx, r, n, fn)
}

// mapOn is the shared bounded worker loop behind Map and MapTree.
func mapOn[T any](ctx context.Context, r *Runner, n int, fn func(ctx context.Context, i, worker int) (T, error)) ([]T, TreeStats, error) {
	if n <= 0 {
		return nil, TreeStats{}, nil
	}
	w := r.workers
	if w > n {
		w = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	panics := make([]*TaskPanic, n)
	var next, failed, done, stolen atomic.Int64
	failed.Store(int64(n))
	// recordFailure keeps the lowest failing index.
	recordFailure := func(i int) {
		for {
			cur := failed.Load()
			if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > failed.Load() {
					// A lower-indexed task already failed; later results
					// would be discarded anyway.
					continue
				}
				res, err, pan := runTask(ctx, i, worker, fn)
				switch {
				case pan != nil:
					panics[i] = pan
					recordFailure(i)
				case err != nil:
					errs[i] = err
					recordFailure(i)
				default:
					results[i] = res
					done.Add(1)
					if i%w != worker {
						stolen.Add(1)
					}
					atomic.AddInt64(&r.tasks, 1)
				}
			}
		}(k)
	}
	wg.Wait()
	ts := TreeStats{Tasks: int(done.Load()), Steals: int(stolen.Load())}
	if f := failed.Load(); f < int64(n) {
		if p := panics[f]; p != nil {
			panic(p)
		}
		return nil, ts, fmt.Errorf("engine: task %d: %w", f, errs[f])
	}
	return results, ts, nil
}

// TaskPanic is the value Map re-raises when a task panicked on a
// worker goroutine: it preserves the original panic value and the
// worker's stack trace (the caller-side re-panic would otherwise print
// a stack ending at engine.Map, hiding the solver that actually
// crashed). recover() around Map yields a *TaskPanic.
type TaskPanic struct {
	// Task is the index of the panicking task.
	Task int
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (p *TaskPanic) String() string {
	return fmt.Sprintf("engine: task %d panicked: %v\n\nworker goroutine stack:\n%s", p.Task, p.Value, p.Stack)
}

// runTask executes one task, converting a panic into a capturable
// outcome so it can be re-raised on the caller's goroutine.
func runTask[T any](ctx context.Context, i, worker int, fn func(context.Context, int, int) (T, error)) (res T, err error, pan *TaskPanic) {
	defer func() {
		if p := recover(); p != nil {
			pan = &TaskPanic{Task: i, Value: p, Stack: debug.Stack()}
		}
	}()
	res, err = fn(ctx, i, worker)
	return
}
