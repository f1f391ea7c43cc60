package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestMapOrderAndDeterminism(t *testing.T) {
	const n = 200
	fn := func(_ context.Context, i int) (int, error) { return i * i, nil }
	serial, err := Map(context.Background(), Serial(), n, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), New(Options{Workers: 8}), n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != i*i || parallel[i] != i*i {
			t.Fatalf("index %d: serial %d, parallel %d, want %d", i, serial[i], parallel[i], i*i)
		}
	}
}

func TestMapReturnsLowestFailingTask(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		r := New(Options{Workers: workers})
		_, err := Map(context.Background(), r, 100, func(_ context.Context, i int) (int, error) {
			if i == 17 || i == 63 {
				return 0, fmt.Errorf("task says %d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if want := "engine: task 17:"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
			t.Fatalf("workers=%d: err = %q, want lowest failing task 17", workers, err)
		}
	}
}

func TestMapRunsEveryTaskUnderCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	res, err := Map(ctx, New(Options{Workers: 4}), 50, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		// Solvers degrade to incumbents under a canceled ctx; the
		// engine must still schedule every cell.
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 || len(res) != 50 {
		t.Fatalf("ran %d tasks, got %d results, want 50", ran.Load(), len(res))
	}
}

func TestCacheCounts(t *testing.T) {
	c := NewCache()
	var computed atomic.Int64
	r := New(Options{Workers: 8, Cache: c})
	_, err := Map(context.Background(), r, 64, func(_ context.Context, i int) (any, error) {
		return r.Cached(fmt.Sprintf("key-%d", i%4), func() (any, error) {
			computed.Add(1)
			return i % 4, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := c.Counts()
	if computed.Load() != 4 || misses != 4 {
		t.Fatalf("computed %d (misses %d), want 4 distinct computations", computed.Load(), misses)
	}
	if hits != 60 {
		t.Fatalf("hits = %d, want 60", hits)
	}
	if c.Len() != 4 {
		t.Fatalf("cache retains %d entries, want 4", c.Len())
	}
}

func TestMapRepanicsLowestIndexOnCaller(t *testing.T) {
	for _, workers := range []int{1, 8} {
		got := func() (p any) {
			defer func() { p = recover() }()
			Map(context.Background(), New(Options{Workers: workers}), 40, func(_ context.Context, i int) (int, error) {
				if i == 7 || i == 31 {
					panic(fmt.Sprintf("cell %d exploded", i))
				}
				return i, nil
			})
			return nil
		}()
		// The panic must surface on the calling goroutine (recoverable,
		// exactly like the historical serial loops) and deterministically
		// carry the lowest panicking cell, with the worker's stack.
		tp, ok := got.(*TaskPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T %v, want *TaskPanic", workers, got, got)
		}
		if tp.Task != 7 || tp.Value != "cell 7 exploded" {
			t.Fatalf("workers=%d: recovered task %d value %v, want cell 7's panic", workers, tp.Task, tp.Value)
		}
		if len(tp.Stack) == 0 || !strings.Contains(tp.String(), "cell 7 exploded") {
			t.Fatalf("workers=%d: TaskPanic missing worker stack or value: %s", workers, tp)
		}
	}
}

func TestCacheComputePanicDoesNotWedge(t *testing.T) {
	c := NewCache()
	func() {
		defer func() { recover() }()
		c.Do("k", func() (any, error) { panic("boom") })
	}()
	// The panicked entry must be dropped, not left in-flight: a later
	// caller recomputes instead of hanging on the flight's done channel.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.Do("k", func() (any, error) { return 7, nil })
		if err != nil || v.(int) != 7 {
			t.Errorf("recompute after panic: v=%v err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cache wedged after compute panic")
	}
}

func TestCachedUnlessCanceledDoesNotRetainDegraded(t *testing.T) {
	r := New(Options{Workers: 2, Cache: NewCache()})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	compute := func() (any, error) { calls++; return calls, nil }
	// Under a canceled ctx the value comes back but is not retained.
	if v, err := r.CachedUnlessCanceled(canceled, "k", compute); err != nil || v.(int) != 1 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if r.Cache().Len() != 0 {
		t.Fatal("degraded value was retained")
	}
	// A later unhurried caller recomputes and the result is memoized.
	if v, err := r.CachedUnlessCanceled(context.Background(), "k", compute); err != nil || v.(int) != 2 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if v, err := r.CachedUnlessCanceled(context.Background(), "k", compute); err != nil || v.(int) != 2 {
		t.Fatalf("memoized v=%v err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestCacheErrorNotRetained(t *testing.T) {
	c := NewCache()
	calls := 0
	_, err := c.Do("k", func() (any, error) { calls++; return nil, errors.New("fail") })
	if err == nil {
		t.Fatal("want error")
	}
	v, err := c.Do("k", func() (any, error) { calls++; return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (failure not memoized)", calls)
	}
}

func TestAddStatsAggregates(t *testing.T) {
	r := New(Options{Workers: 8})
	_, err := Map(context.Background(), r, 100, func(_ context.Context, i int) (any, error) {
		r.AddStats(core.SolveStats{Nodes: 1, Pivots: 2, WarmStarts: 3})
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Nodes != 100 || st.Pivots != 200 || st.WarmStarts != 300 {
		t.Fatalf("aggregated stats = %+v", st)
	}
	if r.Tasks() != 100 {
		t.Fatalf("tasks = %d, want 100", r.Tasks())
	}
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	r := New(Options{Workers: 2})
	res, err := Map(context.Background(), r, 8, func(ctx context.Context, i int) (int, error) {
		inner, err := Map(ctx, r, 4, func(_ context.Context, j int) (int, error) { return j, nil })
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum + i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != 6+i {
			t.Fatalf("res[%d] = %d, want %d", i, v, 6+i)
		}
	}
}

// buildInstance constructs the same Figure-7-style instance twice so key
// tests can check structural (not pointer) identity.
func buildInstance(t *testing.T, seed int64) *core.Instance {
	t.Helper()
	cfg := topology.Paper10
	cfg.Seed = seed
	pop := topology.Generate(cfg)
	in, err := traffic.Route(pop, traffic.Demands(pop, traffic.Config{Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestKeyCanonicalOverRebuilds(t *testing.T) {
	a := buildInstance(t, 3)
	b := buildInstance(t, 3)
	if a == b {
		t.Fatal("want two distinct instance pointers")
	}
	ka := MustKey("tap/exact", a, 0.95, 400000)
	kb := MustKey("tap/exact", b, 0.95, 400000)
	if ka != kb {
		t.Fatal("identical instances hash to different keys")
	}
	if kc := MustKey("tap/exact", buildInstance(t, 4), 0.95, 400000); kc == ka {
		t.Fatal("different seeds hash to the same key")
	}
	if kd := MustKey("tap/ilp", a, 0.95, 400000); kd == ka {
		t.Fatal("different solvers hash to the same key")
	}
	if ke := MustKey("tap/exact", a, 0.90, 400000); ke == ka {
		t.Fatal("different options hash to the same key")
	}
}

func TestKeyMultiAndProbeSet(t *testing.T) {
	cfg := topology.Config{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: 5}
	pop := topology.Generate(cfg)
	mi, err := traffic.RouteMulti(pop, traffic.Demands(pop, traffic.Config{Seed: 5}), 2)
	if err != nil {
		t.Fatal(err)
	}
	k1 := MustKey("sample/ppme", mi, 0.9)
	k2 := MustKey("sample/ppme", mi, 0.9)
	if k1 != k2 {
		t.Fatal("multi-instance key not stable")
	}
	if _, err := Key("x", struct{}{}); err == nil {
		t.Fatal("unknown problem kind must not silently share a key")
	}
	if MustKey("x", nil, "cfg", 1) == MustKey("x", nil, "cfg", 2) {
		t.Fatal("nil-problem parameter keys must differ")
	}
}

func TestCacheSeedAndRange(t *testing.T) {
	c := NewCache()
	if !c.Seed("k1", 41) {
		t.Fatal("seeding an empty cache must install the entry")
	}
	if c.Seed("k1", 99) {
		t.Fatal("seeding an occupied key must be a no-op")
	}
	// A seeded entry is served without running compute and counts as a
	// hit, exactly like a memoized solve.
	v, err := c.Do("k1", func() (any, error) {
		t.Fatal("compute ran for a seeded key")
		return nil, nil
	})
	if err != nil || v.(int) != 41 {
		t.Fatalf("Do(seeded) = %v, %v, want 41", v, err)
	}
	hits, misses := c.Counts()
	if hits != 1 || misses != 0 {
		t.Fatalf("counts = %d/%d hit/miss, want 1/0 (Seed itself counts neither)", hits, misses)
	}
	if _, err := c.Do("k2", func() (any, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	c.Range(func(key string, value any) bool {
		got[key] = value.(int)
		return true
	})
	if len(got) != 2 || got["k1"] != 41 || got["k2"] != 7 {
		t.Fatalf("Range saw %v, want k1:41 k2:7", got)
	}
	// Early termination: fn returning false stops the walk.
	n := 0
	c.Range(func(string, any) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range visited %d entries after false, want 1", n)
	}
}

func TestCacheOnStoreHook(t *testing.T) {
	c := NewCache()
	var mu sync.Mutex
	stored := map[string]any{}
	c.SetOnStore(func(key string, value any) {
		mu.Lock()
		stored[key] = value
		mu.Unlock()
	})
	if _, err := c.Do("a", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	// A second Do on the same key is a hit: the hook must not re-fire.
	if _, err := c.Do("a", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("fail", func() (any, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("want compute error")
	}
	c.Seed("seeded", 3)
	ctx, cancel := context.WithCancel(context.Background())
	r := New(Options{Workers: 1, Cache: c})
	if _, err := r.CachedUnlessCanceled(ctx, "degraded", func() (any, error) {
		cancel() // expire the context mid-compute: value must not persist
		return 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored["a"] != 1 {
		t.Fatalf("OnStore fired for %v, want exactly {a: 1} (no hits, failures, seeds, degraded values)", stored)
	}
}
