package mtasts

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/sf"
	"github.com/netsecurelab/mtasts/internal/store"
)

// CachedPolicy is a policy held by a sending MTA together with the record
// id it was fetched under and its expiry. Its JSON form is the value a
// PolicyCache persists per domain.
type CachedPolicy struct {
	Policy    Policy    `json:"policy"`
	RecordID  string    `json:"record_id"`
	FetchedAt time.Time `json:"fetched_at"`
	// Expires is FetchedAt + max_age.
	Expires time.Time `json:"expires"`
}

// Fresh reports whether the entry is still within its max_age at t.
func (c CachedPolicy) Fresh(t time.Time) bool { return t.Before(c.Expires) }

// DefaultStaleWindow bounds how long an expired entry is retained after
// max_age elapses. Retention exists so a periodic RefreshPolicies pass
// can still find an entry that expired between its runs, and so a
// sender can keep enforcing an old policy when the refetch fails (RFC
// 8461 §5.1 warns that losing the cached policy reopens the
// TLS-fallback downgrade window). Expired entries are never served as
// fresh — only GetStale returns them, and only inside this window.
const DefaultStaleWindow = 24 * time.Hour

// DefaultCacheMax bounds the number of cached policy domains when
// CacheOptions.Max is zero. Entries are ~hundreds of bytes, so the
// default costs a few tens of MiB at the scale of a large sender's active
// destination set.
const DefaultCacheMax = 65536

// cacheKeyPrefix namespaces policy entries inside the shared KV store, so
// a cache can coexist with other state (campaign shards, checkpoints) in
// one store directory.
const cacheKeyPrefix = "policy/"

// cacheMetrics is the namespace of the cache's obs metrics.
const cacheMetrics = "policycache"

// CacheOptions configures OpenPolicyCache. The zero value is usable.
type CacheOptions struct {
	// Max bounds the number of cached domains; 0 means DefaultCacheMax.
	// When the store holds more at open, the earliest-expiring entries
	// are dropped first.
	Max int
	// StaleWindow bounds how long an expired entry remains servable via
	// GetStale; 0 means DefaultStaleWindow.
	StaleWindow time.Duration
	// Clock tells the cache the time; nil means clock.System. The cache
	// outlives any one call, so it keeps its own clock rather than
	// reading one from a context.
	Clock clock.Clock
	// Obs receives the cache's metrics; nil disables them.
	Obs *obs.Registry
}

// CacheStats is a snapshot of the cache's cumulative counters.
type CacheStats struct {
	// Hits counts Get calls answered with a fresh policy.
	Hits int64
	// Misses counts Get calls with no fresh policy (absent or expired).
	Misses int64
	// StaleServed counts GetStale calls answered with an expired policy
	// inside the stale window — deliveries that kept enforcing an old
	// policy because revalidation was failing.
	StaleServed int64
	// RefreshFailures counts failed fetches for domains that still had a
	// cached (fresh or stale) entry — each one a revalidation that did
	// NOT destroy the existing policy.
	RefreshFailures int64
	// Collapsed counts fetches avoided by singleflight: concurrent
	// deliveries that shared another caller's in-flight fetch.
	Collapsed int64
	// PersistErrors counts store writes that failed; the in-memory state
	// stays authoritative for the process lifetime when this is nonzero.
	PersistErrors int64
	// Entries is the current number of cached (possibly stale) domains.
	Entries int
}

// fetchOutcome carries a leader's fetch result to singleflight waiters.
// done distinguishes a real outcome from the zero value waiters receive
// if the leader panics.
type fetchOutcome struct {
	policy Policy
	err    error
	done   bool
}

// errFetchPanic is returned to waiters whose singleflight leader
// panicked before producing an outcome.
//
//lint:ignore codes a panicked fetch is a process bug, not a policy verdict to classify
var errFetchPanic = errors.New("mtasts: coalesced policy fetch aborted (leader panicked)")

// PolicyCache is the sender-side policy store of RFC 8461 §5: policies
// are trusted on first use and served until max_age elapses or the record
// id changes. Beyond those TOFU semantics it is:
//
//   - Durable. Entries are written through to a store.Store (store.Mem
//     for tests and short-lived processes, store.Disk for real MTAs), so
//     a restarted sender keeps enforcing without refetching instead of
//     reopening the TLS-fallback downgrade window of the paper's §5–§6.
//   - Stampede-proof. CoalesceFetch runs one policy fetch per domain
//     among concurrent deliveries; the rest share the leader's result.
//   - Refresh-safe. Revalidation happens in place: the old policy serves
//     until a successful fetch replaces it, and expired entries stay for a
//     bounded stale window so the refresher can still find them and
//     delivery can keep enforcing when the refetch fails (RFC 8461 §5.1).
//
// It is safe for concurrent use. See docs/SENDER.md for the runbook.
type PolicyCache struct {
	st          store.Store
	max         int
	staleWindow time.Duration
	clock       clock.Clock

	mu      sync.Mutex
	entries map[string]CachedPolicy // key: policy domain

	// persistMu serializes store writes in entry-update order without
	// holding mu across the I/O: writers take it hand-over-hand (acquire
	// persistMu, then release mu) so a slow disk stalls only other
	// writers, never Get/GetStale readers of the map.
	persistMu sync.Mutex

	fetches sf.Group[fetchOutcome]

	hits, misses, staleServed      atomic.Int64
	refreshFailures, collapsed     atomic.Int64
	persistErrors                  atomic.Int64
	obsHits, obsMisses             *obs.Counter
	obsStale, obsRefreshFail       *obs.Counter
	obsCollapsed, obsPersistErrors *obs.Counter
}

// NewPolicyCache returns an in-memory cache bounded to max domains
// (minimum 1), without metrics.
func NewPolicyCache(max int) *PolicyCache {
	if max < 1 {
		max = 1
	}
	return newPolicyCache(store.NewMem(), CacheOptions{Max: max})
}

// OpenPolicyCache loads the cached policies persisted in st and returns a
// cache backed by it. Tombstoned (invalidated) entries and entries
// expired beyond the stale window are skipped; if more than Max remain,
// the earliest-expiring are dropped until the bound holds.
func OpenPolicyCache(st store.Store, o CacheOptions) (*PolicyCache, error) {
	c := newPolicyCache(st, o)
	oldest := c.clock.Now().Add(-c.staleWindow)
	err := st.Scan(cacheKeyPrefix, func(key string, value []byte) error {
		if len(value) == 0 {
			return nil // tombstone: entry was invalidated
		}
		var e CachedPolicy
		if err := json.Unmarshal(value, &e); err != nil {
			return fmt.Errorf("decoding %q: %w", key, err)
		}
		if e.Expires.Before(oldest) {
			return nil // beyond the stale window: unusable, drop on load
		}
		c.entries[key[len(cacheKeyPrefix):]] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mtasts: loading policy cache: %w", err)
	}
	for len(c.entries) > c.max {
		c.evictOldestLocked()
	}
	o.Obs.GaugeFunc(cacheMetrics+".entries", func() int64 { return int64(c.Len()) })
	return c, nil
}

func newPolicyCache(st store.Store, o CacheOptions) *PolicyCache {
	if o.Max <= 0 {
		o.Max = DefaultCacheMax
	}
	if o.StaleWindow <= 0 {
		o.StaleWindow = DefaultStaleWindow
	}
	if o.Clock == nil {
		o.Clock = clock.System{}
	}
	return &PolicyCache{
		st:          st,
		max:         o.Max,
		staleWindow: o.StaleWindow,
		clock:       o.Clock,
		entries:     make(map[string]CachedPolicy),

		obsHits:          o.Obs.Counter(cacheMetrics + ".hits"),
		obsMisses:        o.Obs.Counter(cacheMetrics + ".misses"),
		obsStale:         o.Obs.Counter(cacheMetrics + ".stale_served"),
		obsRefreshFail:   o.Obs.Counter(cacheMetrics + ".refresh_failures"),
		obsCollapsed:     o.Obs.Counter(cacheMetrics + ".singleflight_collapsed"),
		obsPersistErrors: o.Obs.Counter(cacheMetrics + ".persist_errors"),
	}
}

// Close releases the underlying store. The cache is unusable afterwards.
func (c *PolicyCache) Close() error { return c.st.Close() }

// Get returns the cached policy for domain if present and fresh. An
// expired entry is a miss, but it is retained for the stale window (see
// GetStale) so a failed refetch cannot destroy it.
func (c *PolicyCache) Get(domain string) (CachedPolicy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[domain]
	if ok && e.Fresh(c.clock.Now()) {
		c.hits.Add(1)
		c.obsHits.Inc()
		return e, true
	}
	if ok {
		c.pruneLocked(domain, e)
	}
	c.misses.Add(1)
	c.obsMisses.Inc()
	return CachedPolicy{}, false
}

// GetStale returns the cached policy for domain if present and not yet
// expired beyond the stale window — the fallback that keeps delivery
// enforcing an old policy when revalidation fails, instead of
// downgrading to unvalidated TLS.
func (c *PolicyCache) GetStale(domain string) (CachedPolicy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[domain]
	if !ok {
		return CachedPolicy{}, false
	}
	if e.Fresh(c.clock.Now()) {
		return e, true
	}
	if c.pruneLocked(domain, e) {
		return CachedPolicy{}, false
	}
	c.staleServed.Add(1)
	c.obsStale.Inc()
	return e, true
}

// pruneLocked drops an expired entry once it passes the stale window.
// Memory-only: the store is compacted on the next open, which skips
// entries this old. Reports whether the entry was dropped.
func (c *PolicyCache) pruneLocked(domain string, e CachedPolicy) bool {
	if c.clock.Now().Sub(e.Expires) > c.staleWindow {
		delete(c.entries, domain)
		return true
	}
	return false
}

// NeedsRefresh implements the record-id comparison of RFC 8461 §4.2: a
// cached policy must be refetched when missing, expired, or fetched
// under a different record id. It does not count toward hit/miss stats.
func (c *PolicyCache) NeedsRefresh(domain, currentRecordID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[domain]
	if !ok || !e.Fresh(c.clock.Now()) {
		return true
	}
	return e.RecordID != currentRecordID
}

// Store caches a freshly fetched policy under the record id it was
// discovered with, persisting it durably. A zero or negative max_age is
// not cached. A persist failure is counted (persist_errors) but does not
// affect the in-memory entry.
func (c *PolicyCache) Store(domain string, p Policy, recordID string) {
	if p.MaxAge <= 0 {
		return
	}
	now := c.clock.Now()
	e := CachedPolicy{
		Policy:    p,
		RecordID:  recordID,
		FetchedAt: now,
		Expires:   now.Add(time.Duration(p.MaxAge) * time.Second),
	}
	buf, err := json.Marshal(e)
	c.mu.Lock()
	if _, exists := c.entries[domain]; !exists && len(c.entries) >= c.max {
		c.evictOldestLocked()
	}
	c.entries[domain] = e
	if err != nil {
		c.mu.Unlock()
		c.persistFailed()
		return
	}
	// Hand-over-hand: acquire persistMu before releasing mu so store
	// writes land in the same order as the entry updates they mirror,
	// then sync durably (a crash immediately after Store cannot lose
	// the fetch) without stalling readers of the map.
	c.persistMu.Lock()
	c.mu.Unlock()
	defer c.persistMu.Unlock()
	//lint:ignore lockhold persistMu exists to serialize these store writes; the I/O is its entire critical section
	if err := c.st.Put(cacheKeyPrefix+domain, buf); err != nil {
		c.persistFailed()
		return
	}
	//lint:ignore lockhold persistMu exists to serialize these store writes; the I/O is its entire critical section
	if err := c.st.Sync(); err != nil {
		c.persistFailed()
	}
}

// evictOldestLocked removes the entry with the earliest expiry.
// Memory-only: capacity is re-enforced at the next open.
func (c *PolicyCache) evictOldestLocked() {
	var oldestKey string
	var oldest time.Time
	first := true
	for k, e := range c.entries {
		if first || e.Expires.Before(oldest) {
			oldestKey, oldest, first = k, e.Expires, false
		}
	}
	if oldestKey != "" {
		delete(c.entries, oldestKey)
	}
}

// Invalidate drops the entry for domain, durably: a tombstone (empty
// value) is written and synced so the entry does not resurrect at the
// next open, even after a crash.
func (c *PolicyCache) Invalidate(domain string) {
	c.mu.Lock()
	if _, ok := c.entries[domain]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.entries, domain)
	// Hand-over-hand as in Store: the tombstone must not be reordered
	// against a concurrent Store's write for the same domain.
	c.persistMu.Lock()
	c.mu.Unlock()
	defer c.persistMu.Unlock()
	//lint:ignore lockhold persistMu exists to serialize these store writes; the I/O is its entire critical section
	if err := c.st.Put(cacheKeyPrefix+domain, nil); err != nil {
		c.persistFailed()
		return
	}
	//lint:ignore lockhold persistMu exists to serialize these store writes; the I/O is its entire critical section
	if err := c.st.Sync(); err != nil {
		c.persistFailed()
	}
}

func (c *PolicyCache) persistFailed() {
	c.persistErrors.Add(1)
	c.obsPersistErrors.Inc()
}

// CoalesceFetch runs fetch once per domain among concurrent callers
// (shared=true for callers that joined another's fetch). The leader's
// context governs the network operation, so waiters can observe its
// cancellation error. A failed fetch for a domain that still has a
// cached entry counts as a refresh failure — the signature of
// revalidate-in-place doing its job.
func (c *PolicyCache) CoalesceFetch(domain string, fetch func() (Policy, error)) (p Policy, shared bool, err error) {
	out, shared := c.fetches.Do(domain, func() fetchOutcome {
		p, err := fetch()
		return fetchOutcome{policy: p, err: err, done: true}
	})
	if shared {
		c.collapsed.Add(1)
		c.obsCollapsed.Inc()
	}
	if !out.done {
		out.err = errFetchPanic
	}
	if out.err != nil && !shared {
		c.mu.Lock()
		_, held := c.entries[domain]
		c.mu.Unlock()
		if held {
			c.refreshFailures.Add(1)
			c.obsRefreshFail.Inc()
		}
	}
	return out.policy, shared, out.err
}

// ExpiringWithin returns the domains whose cached policies expire within
// the window — the population a proactive refresher (RFC 8461 §3.3 "fetch
// the policy file at regular intervals") should revalidate first. The
// deadline is inclusive, and entries that already expired are included
// while they remain inside the stale window: an entry that lapsed between
// refresher ticks must still be revalidated, not silently abandoned.
func (c *PolicyCache) ExpiringWithin(window time.Duration) []string {
	now := c.clock.Now()
	deadline := now.Add(window)
	oldest := now.Add(-c.staleWindow)
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for d, e := range c.entries {
		if !e.Expires.After(deadline) && !e.Expires.Before(oldest) {
			out = append(out, d)
		}
	}
	return out
}

// Len returns the number of cached (possibly stale) entries.
func (c *PolicyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cumulative counters.
func (c *PolicyCache) Stats() CacheStats {
	return CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		StaleServed:     c.staleServed.Load(),
		RefreshFailures: c.refreshFailures.Load(),
		Collapsed:       c.collapsed.Load(),
		PersistErrors:   c.persistErrors.Load(),
		Entries:         c.Len(),
	}
}
