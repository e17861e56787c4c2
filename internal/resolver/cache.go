package resolver

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
)

// entry is a cached lookup outcome.
type entry struct {
	rrs   []dnsmsg.RR
	cname string
	err   error
}

type cacheKey struct {
	name string
	t    dnsmsg.Type
}

type cacheItem struct {
	key     cacheKey
	val     entry
	expires time.Time
}

// CacheStats are cumulative effectiveness counters, maintained whether or
// not observability is enabled (atomic increments, negligible cost) and
// exported by the resolver as resolver.cache.* gauges.
type CacheStats struct {
	// Hits counts Gets answered from an unexpired entry.
	Hits int64
	// Misses counts Gets with no usable entry (absent or expired).
	Misses int64
	// Expired counts Gets that found an entry past its TTL (a subset of
	// Misses).
	Expired int64
	// Evictions counts LRU evictions under capacity pressure.
	Evictions int64
}

// Cache is a TTL-respecting LRU cache of lookup outcomes. It is safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	items map[cacheKey]*list.Element
	order *list.List // front = most recent

	hits, misses, expired, evictions atomic.Int64
}

// NewCache returns a cache bounded to max entries (minimum 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:   max,
		items: make(map[cacheKey]*list.Element),
		order: list.New(),
	}
}

// Get returns the cached outcome for (name, t) if present and unexpired
// at now.
func (c *Cache) Get(now time.Time, name string, t dnsmsg.Type) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{name, t}]
	if !ok {
		c.misses.Add(1)
		return entry{}, false
	}
	item := el.Value.(*cacheItem)
	if now.After(item.expires) {
		c.removeLocked(el)
		c.expired.Add(1)
		c.misses.Add(1)
		return entry{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return item.val, true
}

// Stats returns the cumulative effectiveness counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Expired:   c.expired.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Put stores an outcome with the given TTL from now, evicting the least
// recently used entry when full.
func (c *Cache) Put(now time.Time, name string, t dnsmsg.Type, val entry, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{name, t}
	if el, ok := c.items[key]; ok {
		item := el.Value.(*cacheItem)
		item.val, item.expires = val, now.Add(ttl)
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.max {
		c.removeLocked(c.order.Back())
		c.evictions.Add(1)
	}
	el := c.order.PushFront(&cacheItem{key: key, val: val, expires: now.Add(ttl)})
	c.items[key] = el
}

// Len returns the number of entries unexpired at now, pruning any
// expired but not-yet-evicted ones first so the resolver.cache.entries
// gauge reflects the live population rather than dead weight awaiting
// LRU eviction. (Pruning here does not touch the Expired counter, which
// counts only expirations observed by Get.)
func (c *Cache) Len(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Back(); el != nil; {
		prev := el.Prev()
		if item := el.Value.(*cacheItem); now.After(item.expires) {
			c.removeLocked(el)
		}
		el = prev
	}
	return len(c.items)
}

// Flush drops every entry.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[cacheKey]*list.Element)
	c.order.Init()
}

func (c *Cache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	item := el.Value.(*cacheItem)
	delete(c.items, item.key)
	c.order.Remove(el)
}

// RateLimiter is a token-bucket limiter gating outgoing DNS queries, per
// the paper's "rate limit our queries" methodology (§3.1). It is also
// the bucket behind scansvc's per-tenant admission, through Allow.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewRateLimiter allows rate queries/second with the given burst, and
// starts full.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:   rate,
		burst:  burst,
		tokens: burst,
	}
}

// Wait blocks until a token is available or ctx is done. It refills and
// waits on the context's clock (clock.From).
func (l *RateLimiter) Wait(ctx context.Context) error {
	clk := clock.From(ctx)
	for {
		missing := l.take(clk.Now(), 1)
		if missing == 0 {
			return nil
		}
		wait := time.Duration(missing / l.rate * float64(time.Second))
		//lint:ignore sleeploop the wait for the next token is the limiter's purpose, not a retry
		if err := clk.Sleep(ctx, max(wait, time.Millisecond)); err != nil {
			return err
		}
	}
}

// Allow takes n tokens if the bucket holds them at now and reports
// whether it did. It never waits, and a refusal takes nothing.
func (l *RateLimiter) Allow(now time.Time, n int) bool { return l.take(now, float64(n)) == 0 }

// take credits the tokens earned between the last call and now, up to
// burst, then takes n if the bucket holds them; otherwise it takes
// nothing and returns how many are missing.
func (l *RateLimiter) take(now time.Time, n float64) (missing float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.last.IsZero() {
		l.tokens = min(l.burst, l.tokens+now.Sub(l.last).Seconds()*l.rate)
	}
	l.last = now
	if n > l.tokens {
		return n - l.tokens
	}
	l.tokens -= n
	return 0
}
