package repro

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// answerJSON canonicalizes a Result for byte-identity comparison: the
// Stats block (wall clock and effort counters) is zeroed — warmth is
// allowed, and expected, to change how much work the proof took, never
// what the answer is — and so is the placement's embedded effort
// counter block.
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

// TestSessionResolveEqualsCold is the facade-level resolve==cold lock:
// across a churn replay chain, every Session.Resolve answer must be
// byte-identical to a cold Solve of the same mutated instance.
func TestSessionResolveEqualsCold(t *testing.T) {
	ctx := context.Background()
	for _, family := range []string{"pop", "churn"} {
		s, err := GenerateScenario(family, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		chain, deltas, err := ChurnSteps(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) != 4 || len(deltas) != 3 {
			t.Fatalf("chain %d deltas %d, want 4 and 3", len(chain), len(deltas))
		}
		sess, err := NewSession(SolverTapExact, WithCoverage(0.95))
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range chain {
			warm, err := sess.Resolve(ctx, in)
			if err != nil {
				t.Fatalf("%s step %d: %v", family, i, err)
			}
			cold, err := Solve(ctx, SolverTapExact, in, WithCoverage(0.95))
			if err != nil {
				t.Fatalf("%s step %d cold: %v", family, i, err)
			}
			if w, c := answerJSON(t, warm), answerJSON(t, cold); w != c {
				t.Errorf("%s step %d: warm answer diverged from cold\nwarm: %s\ncold: %s", family, i, w, c)
			}
			if !warm.Optimal {
				t.Errorf("%s step %d: warm solve not optimal", family, i)
			}
		}
		if sess.Resolves() != len(chain) {
			t.Errorf("%s: session counted %d resolves, want %d", family, sess.Resolves(), len(chain))
		}
	}
}

// TestSessionDeltaClassification checks ComputeDelta's classes on
// hand-built mutations of a real instance.
func TestSessionDeltaClassification(t *testing.T) {
	s, err := GenerateScenario("pop", 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Instance()
	if err != nil {
		t.Fatal(err)
	}

	if d := ComputeDelta(base, base); d.Class != DeltaUnchanged {
		t.Fatalf("identical instances classified %v", d.Class)
	}

	// Rescale: same rows, volumes scaled.
	rescaled := *base
	rescaled.Traffics = append([]Traffic(nil), base.Traffics...)
	for i := range rescaled.Traffics {
		rescaled.Traffics[i].Volume *= 1.5
	}
	d := ComputeDelta(base, &rescaled)
	if d.Class != DeltaRescale {
		t.Fatalf("rescaled instance classified %v", d.Class)
	}
	if d.Rescaled != len(base.Traffics) || d.MinFactor < 1.49 || d.MaxFactor > 1.51 {
		t.Fatalf("rescale delta %+v", d)
	}

	// Traffic: a row dropped.
	dropped := *base
	dropped.Traffics = append([]Traffic(nil), base.Traffics[1:]...)
	if d := ComputeDelta(base, &dropped); d.Class != DeltaTraffic || d.RowsRemoved != 1 {
		t.Fatalf("dropped-row delta %+v", d)
	}

	// Topology: a different graph.
	other, err := GenerateScenario("pop", 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	otherIn, err := other.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if d := ComputeDelta(base, otherIn); d.Class != DeltaTopology {
		t.Fatalf("different-POP delta classified %v", d.Class)
	}

	// Unknown: not an *Instance.
	if d := ComputeDelta(base, 42); d.Class != DeltaUnknown {
		t.Fatalf("non-instance delta classified %v", d.Class)
	}
}

// TestResultDiff checks the placement diff on synthetic results.
func TestResultDiff(t *testing.T) {
	prev := &Result{Taps: &TapPlacement{Edges: []EdgeID{1, 2, 3}}}
	cur := &Result{Taps: &TapPlacement{Edges: []EdgeID{2, 3, 5}}}
	d := cur.Diff(prev)
	if len(d.AddedTaps) != 1 || d.AddedTaps[0] != 5 {
		t.Fatalf("added %v, want [5]", d.AddedTaps)
	}
	if len(d.RemovedTaps) != 1 || d.RemovedTaps[0] != 1 {
		t.Fatalf("removed %v, want [1]", d.RemovedTaps)
	}
	if d.Unchanged != 2 || d.Moves() != 2 {
		t.Fatalf("unchanged %d moves %d, want 2 and 2", d.Unchanged, d.Moves())
	}
	// nil prev: everything is new.
	if d := cur.Diff(nil); len(d.AddedTaps) != 3 || d.Unchanged != 0 {
		t.Fatalf("nil-prev diff %+v", d)
	}
}

// TestSessionResolveCancellation: a deadline firing during a warm
// re-solve must surface the best incumbent (no error, provenance in
// the flags), must NOT seed the next warm solve — a clock-dependent
// incumbent restarting the artifact chain would let wall time leak
// into answers — and must not leak goroutines.
func TestSessionResolveCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := context.Background()
	s, err := GenerateScenario("pop", 19, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Instance()
	if err != nil {
		t.Fatal(err)
	}
	// Same rows, volumes scaled: a DeltaRescale mutation, so the warm
	// resolve ships the saved basis.
	mutated := *in
	mutated.Traffics = append([]Traffic(nil), in.Traffics...)
	for i := range mutated.Traffics {
		mutated.Traffics[i].Volume *= 1.1
	}

	sess, err := NewSession(SolverTapExact, WithCoverage(0.93))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Optimal {
		t.Fatalf("cold solve did not close (nodes=%d)", first.Stats.Nodes)
	}

	// An expired context is the deterministic form of a deadline firing
	// mid-resolve: the cover search notices it at its first poll and
	// surfaces the best incumbent (here: the greedy warm start) instead
	// of erroring. A mid-flight timeout takes the same code path but
	// can, on a fast machine, still complete a bound-based optimality
	// proof before the first poll — so the deterministic assertions
	// below use the pre-expired form.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	res, err := sess.Resolve(cctx, &mutated)
	if err != nil {
		t.Fatalf("canceled resolve surfaced an error instead of the incumbent: %v", err)
	}
	if res.Optimal {
		t.Fatal("canceled resolve claims a full optimality proof")
	}
	if res.Taps == nil || len(res.Taps.Edges) == 0 {
		t.Fatal("canceled resolve returned no incumbent placement")
	}
	if d := sess.LastDelta(); d.Class != DeltaRescale {
		t.Fatalf("rescale mutation classified %v", d.Class)
	}
	// The chain must restart cold: a deadline-cut incumbent is
	// clock-dependent and must never become the next solve's artifacts.
	if sess.Previous() != nil {
		t.Fatal("degraded resolve left its result on the artifact chain")
	}
	redo, err := sess.Resolve(ctx, &mutated)
	if err != nil {
		t.Fatal(err)
	}
	if d := sess.LastDelta(); d.Class != DeltaUnknown {
		t.Fatalf("post-degradation resolve classified %v, want a cold restart", d.Class)
	}
	if redo.Stats.WarmStarts != 0 {
		t.Fatalf("post-degradation resolve consumed %d warm artifacts from a degraded solve", redo.Stats.WarmStarts)
	}
	cold, err := Solve(ctx, SolverTapExact, &mutated, WithCoverage(0.93))
	if err != nil {
		t.Fatal(err)
	}
	if w, c := answerJSON(t, redo), answerJSON(t, cold); w != c {
		t.Errorf("post-degradation resolve diverged from cold\nwarm: %s\ncold: %s", w, c)
	}

	// Mid-flight variant: a timeout that fires while the warm re-solve
	// is searching must reset the chain the same way — whatever flag
	// the interrupted incumbent ended up carrying.
	tctx, tcancel := context.WithTimeout(ctx, time.Millisecond)
	defer tcancel()
	if _, err := sess.Resolve(tctx, in); err != nil {
		t.Fatal(err)
	}
	if sess.Previous() != nil {
		t.Fatal("timeout-cut resolve left its result on the artifact chain")
	}

	// Search workers must have wound down with the canceled solves.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
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

// TestSessionWarmActuallyEngages: on an unchanged re-solve the session
// must apply at least one warm artifact (visible in Stats.WarmStarts)
// — otherwise the whole machinery is a no-op and the benchmark's
// speedup claim is vacuous.
func TestSessionWarmActuallyEngages(t *testing.T) {
	ctx := context.Background()
	s, err := GenerateScenario("pop", 18, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Instance()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SolverTapExact, WithCoverage(0.95))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Resolve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if d := sess.LastDelta(); d.Class != DeltaUnchanged {
		t.Fatalf("unchanged re-solve classified %v", d.Class)
	}
	if warm.Stats.WarmStarts == 0 {
		t.Fatalf("unchanged re-solve applied no warm artifacts (first nodes=%d warm nodes=%d)",
			first.Stats.Nodes, warm.Stats.Nodes)
	}
	if warm.Stats.Nodes > first.Stats.Nodes {
		t.Errorf("warm re-solve explored more nodes than cold (%d > %d)", warm.Stats.Nodes, first.Stats.Nodes)
	}
}
