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
	// Hits counts calls answered without running fn: from a completed
	// entry or by waiting on the call that was computing it.
	Hits int64
	// Misses counts calls that ran fn: one per distinct key.
	Misses int64
}

// Cache memoizes one result per key: the first call per key runs fn,
// concurrent callers of the same key wait for it, and later calls read
// the stored result. Entries never expire — a Cache is meant to be
// scoped to one scan run and dropped with it. A key costs one
// allocation, its entry, plus its share of the map. The zero value is
// ready to use.
type Cache[V any] struct {
	// SizeHint is how many keys the map holds before it first grows; it
	// is allocated with the first key. A map that grows allocates as
	// many bytes again as its final size, so a good hint halves what the
	// map costs.
	SizeHint int

	mu      sync.RWMutex
	entries map[string]*entry[V]

	hits, misses atomic.Int64
}

// entry is one key's result, computed at most once.
type entry[V any] struct {
	once sync.Once
	val  V
}

// Do returns the result for key, computing it via fn exactly once
// across all callers. shared is true when fn did not run for this call.
// If fn panics, the panic propagates on the caller that ran it, and
// every call for key returns the zero value from then on — callers
// whose V carries an error field should treat a zero V as "call
// failed".
func (c *Cache[V]) Do(key string, fn func() V) (val V, shared bool) {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil {
		c.mu.Lock()
		if e = c.entries[key]; e == nil {
			if c.entries == nil {
				c.entries = make(map[string]*entry[V], c.SizeHint)
			}
			e = new(entry[V])
			c.entries[key] = e
		}
		c.mu.Unlock()
	}
	ran := false
	e.once.Do(func() {
		ran = true
		e.val = fn()
	})
	if ran {
		c.misses.Add(1)
		return e.val, false
	}
	c.hits.Add(1)
	return e.val, true
}

// Stats returns the cumulative hit/miss counters. For T total calls
// over U unique keys, Hits == T-U and Misses == U.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}
