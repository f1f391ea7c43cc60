package engine

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Cache is a memoizing solve cache with single-flight semantics:
// concurrent callers of the same key share one computation, and the
// result is retained for the lifetime of the cache. Values handed out
// are shared, so cached computations must be safe for concurrent
// read-only use (every solver result in this repository is).
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	onStore func(key string, value any)

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	done      chan struct{}
	value     any
	err       error
	completed bool
}

// errComputePanicked marks an entry whose computation panicked: waiters
// joined on the flight must retry, not read a zero value.
var errComputePanicked = errors.New("engine: cached computation panicked")

// NewCache builds an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Do returns the memoized value for key, computing it with compute on
// the first call. A computation error is not retained: the next caller
// retries. Duplicate concurrent callers block on the in-flight
// computation and count as hits.
func (c *Cache) Do(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		if e.err == nil {
			c.hits.Add(1)
			return e.value, nil
		}
		// The flight we joined failed; retry our own computation.
		return c.retry(key, compute)
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	onStore := c.onStore
	c.mu.Unlock()

	c.misses.Add(1)
	// The deferred block also runs when compute panics: the entry is
	// dropped, marked errored (so joined waiters retry instead of
	// reading a zero value), and the done channel is closed — a panic
	// must never wedge other goroutines blocked on this flight.
	defer func() {
		if !e.completed && e.err == nil {
			e.err = errComputePanicked
		}
		if e.err != nil {
			// Drop failed entries so later callers recompute.
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.value, e.err = compute()
	e.completed = true
	if e.err == nil && onStore != nil {
		// Save hook: the entry is being retained; hand it to the
		// persistent store before waiters are released so a crash right
		// after the solve still finds it on disk.
		onStore(key, e.value)
	}
	return e.value, e.err
}

// Seed pre-populates the cache with a completed entry — the load hook a
// persistent store uses to warm the cache at startup. It counts as
// neither hit nor miss, does not fire the OnStore hook, and reports
// whether the entry was installed (false when key is already present,
// completed or in flight).
func (c *Cache) Seed(key string, value any) bool {
	e := &cacheEntry{done: make(chan struct{}), value: value, completed: true}
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.entries[key] = e
	return true
}

// SetOnStore installs the save hook: fn is called once per newly
// retained entry (after its computation succeeded), on the computing
// goroutine, before waiters are released. Seeded entries, failed
// computations and cancellation-degraded values never fire it. Install
// the hook before the cache is shared; fn must be safe for concurrent
// calls from different keys' computations.
func (c *Cache) SetOnStore(fn func(key string, value any)) {
	c.mu.Lock()
	c.onStore = fn
	c.mu.Unlock()
}

// retry re-enters Do after joining a failed flight.
func (c *Cache) retry(key string, compute func() (any, error)) (any, error) {
	return c.Do(key, compute)
}

// Counts returns the hit and miss counters. A hit is a Do call served
// from a completed or in-flight computation; a miss is a Do call that
// ran compute itself.
func (c *Cache) Counts() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of retained entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
