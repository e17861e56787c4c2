package sf

import (
	"sync"
	"sync/atomic"
)

// call is one in-flight execution of a keyed function.
type call[V any] struct {
	done chan struct{}
	val  V
}

// Group collapses concurrent calls with the same key into a single
// execution of fn. It has no memory: once a call completes, the next
// Do with the same key runs fn again. The zero value is ready to use.
type Group[V any] struct {
	mu       sync.Mutex
	inflight map[string]*call[V]
}

// Do executes fn once per key among concurrent callers: the first
// caller (the leader) runs fn, every caller that arrives before the
// leader finishes blocks and receives the leader's result with
// shared=true. If fn panics, the panic propagates on the leader and
// waiters receive the zero value — callers whose V carries an error
// field should treat a zero V as "call failed".
func (g *Group[V]) Do(key string, fn func() V) (val V, shared bool) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[string]*call[V])
	}
	if c, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true
	}
	c := &call[V]{done: make(chan struct{})}
	g.inflight[key] = c
	g.mu.Unlock()

	// Release waiters even if fn panics, so a bug in one probe cannot
	// deadlock every goroutine waiting on its key.
	completed := false
	defer func() {
		g.mu.Lock()
		delete(g.inflight, key)
		g.mu.Unlock()
		close(c.done)
		if !completed {
			return // re-panicking; waiters see the zero value
		}
	}()
	c.val = fn()
	completed = true
	return c.val, false
}

// CacheStats are cumulative effectiveness counters for a Cache.
type CacheStats struct {
	// Hits counts calls answered without running fn: either from the
	// memo of a completed call or by joining an in-flight one.
	Hits int64
	// Misses counts calls that ran fn (the in-flight leaders).
	Misses int64
}

// Cache is a Group with memoization: the first call per key runs fn,
// concurrent duplicates join it, and later calls are answered from the
// stored result without blocking. Entries never expire — a Cache is
// meant to be scoped to one scan run and dropped with it. The zero
// value is ready to use.
type Cache[V any] struct {
	g    Group[V]
	mu   sync.RWMutex
	vals map[string]V

	hits, misses atomic.Int64
}

// Do returns the cached result for key, computing it via fn exactly
// once across all callers. shared is true when fn did not run for this
// call (memo hit or joined an in-flight leader).
func (c *Cache[V]) Do(key string, fn func() V) (val V, shared bool) {
	c.mu.RLock()
	v, ok := c.vals[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	// A leader that finished between the check above and this call has
	// already memoized key and left the group, so the group's leader
	// looks again before running fn.
	ran := false
	val, _ = c.g.Do(key, func() V {
		c.mu.RLock()
		v, ok := c.vals[key]
		c.mu.RUnlock()
		if ok {
			return v
		}
		ran = true
		v = fn()
		c.mu.Lock()
		if c.vals == nil {
			c.vals = make(map[string]V)
		}
		c.vals[key] = v
		c.mu.Unlock()
		return v
	})
	if !ran {
		c.hits.Add(1)
		return val, true
	}
	c.misses.Add(1)
	return val, false
}

// Get returns the memoized result for key without computing anything.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.vals[key]
	return v, ok
}

// Len returns the number of completed, memoized keys.
func (c *Cache[V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.vals)
}

// Stats returns the cumulative hit/miss counters. For T total calls
// over U unique keys, Hits == T-U and Misses == U — the analytic
// identity the dedup stress test asserts.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}
