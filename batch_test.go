package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSolveBatchMatchesSerialSolves(t *testing.T) {
	var problems []Problem
	for seed := int64(1); seed <= 4; seed++ {
		problems = append(problems, testInstance(t, seed))
	}
	batch, err := SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(problems) {
		t.Fatalf("got %d results for %d problems", len(batch), len(problems))
	}
	for i, p := range problems {
		ref, err := Solve(context.Background(), SolverTapExact, p, WithCoverage(0.9))
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Devices() != ref.Devices() || batch[i].Objective != ref.Objective ||
			batch[i].Optimal != ref.Optimal {
			t.Fatalf("problem %d: batch (%d devices, obj %g) != serial (%d devices, obj %g)",
				i, batch[i].Devices(), batch[i].Objective, ref.Devices(), ref.Objective)
		}
		if batch[i].Solver != SolverTapExact {
			t.Fatalf("problem %d solved by %q", i, batch[i].Solver)
		}
	}
}

func TestSolveBatchSerialParallelIdentical(t *testing.T) {
	var problems []Problem
	for seed := int64(1); seed <= 6; seed++ {
		problems = append(problems, testInstance(t, seed))
	}
	serialR := NewRunner(WithWorkers(1))
	serial, err := serialR.SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.95))
	if err != nil {
		t.Fatal(err)
	}
	parallelR := NewRunner(WithWorkers(8))
	parallel, err := parallelR.SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.95))
	if err != nil {
		t.Fatal(err)
	}
	for i := range problems {
		if serial[i].Devices() != parallel[i].Devices() || serial[i].Objective != parallel[i].Objective {
			t.Fatalf("problem %d: serial %d devices, parallel %d", i, serial[i].Devices(), parallel[i].Devices())
		}
	}
	if s, p := serialR.BatchStats(), parallelR.BatchStats(); s != p {
		t.Fatalf("aggregated stats differ: serial %+v, parallel %+v", s, p)
	}
}

func TestSolveBatchCacheDeduplicates(t *testing.T) {
	shared := testInstance(t, 3)
	rebuilt := testInstance(t, 3) // structurally identical, distinct pointer
	problems := []Problem{shared, shared, rebuilt, shared, testInstance(t, 4)}
	r := NewRunner()
	res, err := r.SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.9))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.CacheCounts()
	// Seeds 3 and 4 are the only distinct canonical instances: the
	// rebuilt seed-3 copy must hit the cache too.
	if misses != 2 || hits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/2", hits, misses)
	}
	for i := 0; i < 4; i++ {
		if res[i].Devices() != res[0].Devices() {
			t.Fatalf("duplicate problem %d got %d devices, first got %d", i, res[i].Devices(), res[0].Devices())
		}
	}
	// The aggregate counts each memoized solve once.
	before := r.BatchStats()
	if _, err := r.SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.9)); err != nil {
		t.Fatal(err)
	}
	if after := r.BatchStats(); after != before {
		t.Fatalf("cached rerun grew stats: %+v -> %+v", before, after)
	}
}

func TestSolveBatchTimeBoundedBypassesCache(t *testing.T) {
	in := testInstance(t, 5)
	r := NewRunner()
	_, err := r.SolveBatch(context.Background(), SolverTapExact, []Problem{in, in},
		WithCoverage(0.9), WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.CacheCounts(); hits != 0 || misses != 0 {
		t.Fatalf("time-bounded batch touched the cache: hits/misses = %d/%d", hits, misses)
	}
	// A deadline on the caller's own context is just as clock-dependent:
	// a degraded incumbent from such a run must never be memoized.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := r.SolveBatch(ctx, SolverTapExact, []Problem{in, in}, WithCoverage(0.9)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.CacheCounts(); hits != 0 || misses != 0 {
		t.Fatalf("ctx-deadline batch touched the cache: hits/misses = %d/%d", hits, misses)
	}
}

// TestSolveBatchCacheKeyIncludesRelGap: the relative gap is part of
// the cache key, so an exact request is never served an earlier gapped
// answer. On this POP the gapped tap/ilp solve stops at 7 devices and
// still reports Optimal, while the optimum is 6.
func TestSolveBatchCacheKeyIncludesRelGap(t *testing.T) {
	pop := GeneratePOP(POPConfig{Routers: 10, InterRouterLinks: 18, Endpoints: 10, Seed: 7})
	in, err := RouteSingle(pop, GenerateDemands(pop, TrafficConfig{Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	solve := func(r *Runner, opts ...Option) *Result {
		t.Helper()
		res, err := r.SolveBatch(context.Background(), SolverTapILP, []Problem{in},
			append([]Option{WithCoverage(0.95)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	r := NewRunner()
	gapped := solve(r, WithRelGap(0.9))
	exact := solve(r)
	fresh := solve(NewRunner())
	if fresh.Devices() >= gapped.Devices() {
		t.Fatalf("instance no longer separates the gaps: gapped %d devices, exact %d", gapped.Devices(), fresh.Devices())
	}
	if exact.Devices() != fresh.Devices() || exact.Objective != fresh.Objective || !exact.Optimal {
		t.Fatalf("exact request after a gapped one: %d devices (optimal %v), fresh exact solve %d",
			exact.Devices(), exact.Optimal, fresh.Devices())
	}
	if hits, misses := r.CacheCounts(); hits != 0 || misses != 2 {
		t.Fatalf("gapped and exact requests shared a cache entry: hits/misses = %d/%d", hits, misses)
	}
}

func TestSolveBatchWithoutCache(t *testing.T) {
	in := testInstance(t, 6)
	r := NewRunner(WithoutCache(), WithWorkers(2))
	res, err := r.SolveBatch(context.Background(), SolverTapGreedyLoad, []Problem{in, in})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Devices() != res[1].Devices() {
		t.Fatal("uncached duplicate solves disagree")
	}
	if hits, misses := r.CacheCounts(); hits != 0 || misses != 0 {
		t.Fatal("WithoutCache runner reported cache traffic")
	}
}

func TestSolveBatchUnknownSolver(t *testing.T) {
	if _, err := SolveBatch(context.Background(), "tap/nope", []Problem{testInstance(t, 1)}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestSolveBatchPropagatesLowestError(t *testing.T) {
	// A beacon problem handed to a tap solver errors; the batch reports
	// the first (lowest-index) failure deterministically.
	bad := Problem("not an instance")
	_, err := SolveBatch(context.Background(), SolverTapExact,
		[]Problem{testInstance(t, 1), bad, bad}, WithCoverage(0.9))
	if err == nil {
		t.Fatal("bad problem accepted")
	}
}

func TestSolveBatchRejectsEmptySolverAndNilProblem(t *testing.T) {
	problems := []Problem{testInstance(t, 1), nil, testInstance(t, 2)}
	if _, err := SolveBatch(context.Background(), "", problems[:1]); err == nil ||
		!strings.Contains(err.Error(), "empty solver name") {
		t.Fatalf("empty solver name: got %v, want an up-front error naming it", err)
	}
	_, err := SolveBatch(context.Background(), SolverTapExact, problems)
	if err == nil || !strings.Contains(err.Error(), "problem 1 is nil") {
		t.Fatalf("nil problem: got %v, want an up-front error carrying index 1", err)
	}
}

func TestSolveBatchCancellationMidBatchReturnsIncumbents(t *testing.T) {
	// A context canceled between problems must not abort the batch: the
	// engine keeps scheduling and exact solvers degrade to their best
	// incumbents, so every problem still reports a (non-optimal) result
	// and no worker goroutine is left behind.
	var problems []Problem
	for seed := int64(1); seed <= 5; seed++ {
		problems = append(problems, testInstance(t, seed))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	name := "test/cancel-after-first"
	if err := RegisterSolver(SolverFunc{SolverName: name, Fn: func(ctx context.Context, p Problem, o Options) (*Result, error) {
		if calls.Add(1) == 2 {
			// Fires after problem 0 completed (single worker runs the
			// batch strictly in order): problems 1.. see a dead context.
			cancel()
		}
		return Solve(ctx, SolverTapExact, p, WithCoverage(o.Coverage))
	}}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	results, err := NewRunner(WithWorkers(1)).SolveBatch(ctx, name, problems, WithCoverage(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(problems) {
		t.Fatalf("got %d results for %d problems", len(results), len(problems))
	}
	if !results[0].Optimal {
		t.Fatal("problem 0 solved before cancellation must be optimal")
	}
	for i, res := range results {
		if res == nil || res.Taps == nil {
			t.Fatalf("problem %d: no incumbent after cancellation", i)
		}
	}
	for i, res := range results[2:] {
		if res.Optimal {
			t.Fatalf("problem %d claims optimality under a canceled context", i+2)
		}
	}
	// No leaked workers: engine.Map joins its goroutines before
	// returning; give the runtime a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before batch, %d after", before, n)
	}
}

func TestRunnerCacheDirPersistsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	problems := []Problem{testInstance(t, 1), testInstance(t, 2)}

	cold := NewRunner(WithWorkers(1), WithCacheDir(dir))
	first, err := cold.SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cold.CacheCounts(); hits != 0 || misses != 2 {
		t.Fatalf("cold runner counts = %d/%d hit/miss, want 0/2", hits, misses)
	}

	// A fresh runner over the same directory must serve both solves from
	// the persisted store: zero misses, identical results.
	warm := NewRunner(WithWorkers(1), WithCacheDir(dir))
	second, err := warm.SolveBatch(context.Background(), SolverTapExact, problems, WithCoverage(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.CacheCounts(); hits != 2 || misses != 0 {
		t.Fatalf("warm runner counts = %d/%d hit/miss, want 2/0 (disk store not loaded?)", hits, misses)
	}
	for i := range problems {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("problem %d: warm result differs from cold:\ncold %s\nwarm %s", i, a, b)
		}
	}

	// The store is content-addressed by the canonical hex keys and
	// ignores foreign files.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := NewRunner(WithCacheDir(dir))
	if _, err := again.SolveBatch(context.Background(), SolverTapExact, problems[:1], WithCoverage(0.95)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := again.CacheCounts(); hits != 1 || misses != 0 {
		t.Fatalf("counts after junk file = %d/%d hit/miss, want 1/0", hits, misses)
	}
}

// answerJSON canonicalizes a Result for byte-identity comparison: the
// Stats block (wall clock and effort counters) is zeroed, and so is the
// placement's embedded effort counter block, leaving only the answer.
func answerJSON(t *testing.T, r *Result) string {
	t.Helper()
	cp := *r
	cp.Stats = Stats{}
	if cp.Taps != nil {
		taps := *cp.Taps
		taps.Stats = TapPlacement{}.Stats
		cp.Taps = &taps
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDegradedResultNotCached extends the engine's WithoutCaching
// discipline to time-bounded batches: a batch under a deadline (option
// or context) must bypass the cache entirely — its incumbents are
// clock-shaped — so a later unhurried batch on the same runner solves
// fresh and gets the full proof, never a capped incumbent.
func TestDegradedResultNotCached(t *testing.T) {
	ctx := context.Background()
	s, err := GenerateScenario("pop", 19, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Instance()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithWorkers(1))

	// Once under a context deadline, once under the option timeout:
	// both forms must leave the cache untouched.
	cctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	_, err = r.SolveBatch(cctx, SolverTapExact, []Problem{in}, WithCoverage(0.93))
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SolveBatch(ctx, SolverTapExact, []Problem{in}, WithCoverage(0.93), WithTimeout(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.CacheCounts(); hits+misses != 0 {
		t.Fatalf("time-bounded batches touched the cache (hits=%d misses=%d)", hits, misses)
	}

	full, err := r.SolveBatch(ctx, SolverTapExact, []Problem{in}, WithCoverage(0.93))
	if err != nil {
		t.Fatal(err)
	}
	if !full[0].Optimal {
		t.Fatal("unhurried batch did not close — was a capped incumbent served?")
	}
	if hits, misses := r.CacheCounts(); hits != 0 || misses != 1 {
		t.Fatalf("unhurried batch should be the cache's first miss (hits=%d misses=%d)", hits, misses)
	}
	again, err := r.SolveBatch(ctx, SolverTapExact, []Problem{in}, WithCoverage(0.93))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := r.CacheCounts(); hits != 1 {
		t.Fatalf("identical unhurried batch should hit the cache (hits=%d)", hits)
	}
	if w, c := answerJSON(t, again[0]), answerJSON(t, full[0]); w != c {
		t.Errorf("cache served a different answer\nfirst: %s\nsecond: %s", c, w)
	}
}
