package mtasts

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/store"
)

func mxPolicy(mx string, maxAge int64) Policy {
	return Policy{Version: Version, Mode: ModeEnforce, MaxAge: maxAge, MXPatterns: []string{mx}}
}

// newClock is the test clock a cache shares via CacheOptions.Clock.
func newClock() *clock.Fake { return clock.NewFake(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)) }

func mustOpen(t *testing.T, st store.Store, o CacheOptions) *PolicyCache {
	t.Helper()
	c, err := OpenPolicyCache(st, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// errCrashed is what every mutating call returns once crashStore has
// crashed.
var errCrashed = errors.New("crashed")

// crashStore wraps a store and records its mutating calls (Put, Batch,
// Sync). When at > 0 it crashes at call at: the store's write buffer
// goes out to the OS, the directory dir, if set, is copied to image as
// the OS holds it at that instant, clk's reading, if clk is set, is
// kept as crashedAt, and that call and every later one fail with
// errCrashed.
type crashStore struct {
	store.Store
	dir, image string
	at         int
	clk        clock.Clock
	crashedAt  time.Time

	mu    sync.Mutex
	calls []string // "put", "batch" or "sync", in call order
}

func (c *crashStore) step(kind string, write func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at > 0 && len(c.calls) >= c.at {
		return errCrashed
	}
	c.calls = append(c.calls, kind)
	if len(c.calls) != c.at {
		return write()
	}
	if c.clk != nil {
		c.crashedAt = c.clk.Now()
	}
	if c.dir != "" {
		if err := c.Store.Sync(); err != nil {
			return err
		}
		c.image = c.dir + ".image"
		if err := copyDir(c.dir, c.image); err != nil {
			panic(err)
		}
	}
	return errCrashed
}

// copyDir copies the files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (c *crashStore) Put(key string, value []byte) error {
	return c.step("put", func() error { return c.Store.Put(key, value) })
}

func (c *crashStore) Batch(entries []store.Entry) error {
	return c.step("batch", func() error { return c.Store.Batch(entries) })
}

func (c *crashStore) Sync() error { return c.step("sync", c.Store.Sync) }

// count reports how many calls of kind the store has seen.
func (c *crashStore) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.calls {
		if k == kind {
			n++
		}
	}
	return n
}

// TestRefreshCrashEveryCall crashes a refresh round — four cached
// domains revalidated to a new policy and record id, each a Put and a
// Sync — at each of its store calls. The cache reopened over the crash
// image must hold every domain at its old or its new policy, whole:
// never missing, never one policy under the other's id.
func TestRefreshCrashEveryCall(t *testing.T) {
	refreshCrashEveryCall(t, false, func(at int, _ time.Time, c *PolicyCache, d string, isOld, isNew func(CachedPolicy) bool) {
		e, ok := c.Get(d)
		switch {
		case !ok:
			t.Fatalf("crash at call %d: %s missing", at, d)
		case !isOld(e) && !isNew(e):
			t.Fatalf("crash at call %d: %s reopened torn: %+v", at, d, e)
		}
	})
}

// TestRefreshCrashEveryCallMaxAgeCrossing is the same round with a
// time-dependent boundary inside it: halfway through, the clock passes
// the old policies' max_age. Each crash image is reopened at the
// instant of its crash. Before the crossing Get serves every domain,
// old or new; after it Get serves a domain exactly when the image holds
// its new policy, and never an old one. GetStale serves every domain at
// its old or its new policy, whole: never missing, never torn.
func TestRefreshCrashEveryCallMaxAgeCrossing(t *testing.T) {
	oldExpires := newClock().Now().Add(time.Hour)
	var before, after int
	refreshCrashEveryCall(t, true, func(at int, now time.Time, c *PolicyCache, d string, isOld, isNew func(CachedPolicy) bool) {
		stale, ok := c.GetStale(d)
		switch {
		case !ok:
			t.Fatalf("crash at call %d: GetStale(%s) missing", at, d)
		case !isOld(stale) && !isNew(stale):
			t.Fatalf("crash at call %d: %s reopened torn: %+v", at, d, stale)
		}
		e, ok := c.Get(d)
		if !now.After(oldExpires) {
			before++
			if !ok {
				t.Fatalf("crash at call %d: Get(%s) missing before the old max_age", at, d)
			}
			return
		}
		after++
		switch {
		case ok && !isNew(e):
			t.Fatalf("crash at call %d: Get(%s) served %+v past the old max_age", at, d, e)
		case !ok && isNew(stale):
			t.Fatalf("crash at call %d: Get(%s) missed the new policy", at, d)
		}
	})
	if before == 0 || after == 0 {
		t.Errorf("crash checks before/after the max_age crossing = %d/%d, want both sides", before, after)
	}
}

// refreshCrashEveryCall seeds four domains at an old policy (max_age
// 1h), moves the clock 50 minutes on, and crashes a refresh round at
// each of its store calls; check sees every domain of the cache
// reopened over each crash image, with the clock at now, the instant of
// the crash. With cross set, the clock passes the old max_age after
// half the domains.
func refreshCrashEveryCall(t *testing.T, cross bool, check func(at int, now time.Time, c *PolicyCache, d string, isOld, isNew func(CachedPolicy) bool)) {
	t.Helper()
	clk := newClock()
	domains := []string{"a.test", "b.test", "c.test", "d.test"}
	policy := func(d, gen string) Policy { return mxPolicy("mx."+gen+"."+d, 3600) }
	seed := t.TempDir()
	st, err := store.OpenDisk(seed)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, st, CacheOptions{Clock: clk})
	for _, d := range domains {
		c.Store(d, policy(d, "old"), "id1")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Minute) // every entry is now inside the refresh window
	refreshAt := clk.Now()

	// round opens the cache over a copy of seed and refreshes it; the
	// copy's directory is what the crash image is taken from.
	round := func(at int) *crashStore {
		clk.Set(refreshAt)
		dir := filepath.Join(t.TempDir(), "store")
		if err := copyDir(seed, dir); err != nil {
			t.Fatal(err)
		}
		d, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		cs := &crashStore{Store: d, dir: dir, at: at, clk: clk}
		c := mustOpen(t, cs, CacheOptions{Clock: clk})
		for i, dom := range c.ExpiringWithin(time.Hour) {
			if cross && i == len(domains)/2 {
				clk.Advance(11 * time.Minute) // past the old policies' max_age
			}
			if _, _, err := c.CoalesceFetch(dom, func() (Policy, error) {
				p := policy(dom, "new")
				c.Store(dom, p, "id2")
				return p, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	calls := len(round(0).calls)
	if calls != 2*len(domains) {
		t.Fatalf("refresh round made %d store calls, want a Put and a Sync per domain", calls)
	}
	for at := 1; at <= calls; at++ {
		cs := round(at)
		clk.Set(cs.crashedAt)
		st, err := store.OpenDisk(cs.image)
		if err != nil {
			t.Fatalf("crash at call %d: reopen: %v", at, err)
		}
		c := mustOpen(t, st, CacheOptions{Clock: clk})
		for _, d := range domains {
			isOld := func(e CachedPolicy) bool {
				return e.RecordID == "id1" && reflect.DeepEqual(e.Policy, policy(d, "old"))
			}
			isNew := func(e CachedPolicy) bool {
				return e.RecordID == "id2" && reflect.DeepEqual(e.Policy, policy(d, "new"))
			}
			check(at, cs.crashedAt, c, d, isOld, isNew)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d crash points", calls)
}

func TestStoreGetStats(t *testing.T) {
	clk := newClock()
	c := mustOpen(t, store.NewMem(), CacheOptions{Clock: clk})
	if _, ok := c.Get("a.test"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Store("a.test", mxPolicy("mx.a.test", 3600), "id1")
	e, ok := c.Get("a.test")
	if !ok || e.RecordID != "id1" || e.Policy.Mode != ModeEnforce {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStoreZeroMaxAgeNotCached(t *testing.T) {
	c := mustOpen(t, store.NewMem(), CacheOptions{})
	c.Store("a.test", mxPolicy("mx.a.test", 0), "id1")
	if c.Len() != 0 {
		t.Error("zero max_age was cached")
	}
}

// TestRestartRecovery is the crash-restart proof: TOFU state persisted
// through the disk store must survive a process restart, including
// tombstones for invalidated domains.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()

	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, st, CacheOptions{Clock: clk})
	c.Store("keep.test", mxPolicy("mx.keep.test", 86400), "id-keep")
	c.Store("drop.test", mxPolicy("mx.drop.test", 86400), "id-drop")
	c.Invalidate("drop.test")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen from the same directory.
	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, st2, CacheOptions{Clock: clk})
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	e, ok := c2.Get("keep.test")
	if !ok || e.RecordID != "id-keep" {
		t.Fatalf("entry lost across restart: %+v, %v", e, ok)
	}
	if !e.Fresh(clk.Now()) {
		t.Error("recovered entry not fresh")
	}
	if _, ok := c2.Get("drop.test"); ok {
		t.Error("invalidated entry resurrected across restart")
	}
	if c2.Len() != 1 {
		t.Errorf("Len = %d, want 1", c2.Len())
	}
}

func TestRestartSkipsEntriesBeyondStaleWindow(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, st, CacheOptions{Clock: clk})
	c.Store("old.test", mxPolicy("mx.old.test", 60), "id")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	clk.Advance(48 * time.Hour) // far past max_age + stale window
	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, st2, CacheOptions{Clock: clk})
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if c2.Len() != 0 {
		t.Errorf("entry beyond stale window loaded: Len = %d", c2.Len())
	}
}

func TestNeedsRefreshRecordIDChange(t *testing.T) {
	clk := newClock()
	c := mustOpen(t, store.NewMem(), CacheOptions{Clock: clk})
	c.Store("a.test", mxPolicy("mx.a.test", 3600), "id1")
	if c.NeedsRefresh("a.test", "id1") {
		t.Error("fresh same-id entry reported needing refresh")
	}
	if !c.NeedsRefresh("a.test", "id2") {
		t.Error("record-id change must force a refetch (RFC 8461 §4.2)")
	}
	clk.Advance(2 * time.Hour)
	if !c.NeedsRefresh("a.test", "id1") {
		t.Error("expired entry reported fresh")
	}
}

func TestStaleWindowSemantics(t *testing.T) {
	clk := newClock()
	c := mustOpen(t, store.NewMem(), CacheOptions{Clock: clk, StaleWindow: time.Hour})
	c.Store("a.test", mxPolicy("mx.a.test", 60), "id1")

	clk.Advance(10 * time.Minute) // expired, inside the stale window
	if _, ok := c.Get("a.test"); ok {
		t.Error("expired entry served as fresh")
	}
	if e, ok := c.GetStale("a.test"); !ok || e.RecordID != "id1" {
		t.Error("expired entry not served stale inside the window")
	}
	if c.Stats().StaleServed != 1 {
		t.Errorf("StaleServed = %d, want 1", c.Stats().StaleServed)
	}

	clk.Advance(2 * time.Hour) // beyond the stale window
	if _, ok := c.GetStale("a.test"); ok {
		t.Error("entry served beyond the stale window")
	}
	if c.Len() != 0 {
		t.Error("beyond-window entry not pruned")
	}
}

func TestExpiringWithinIncludesRecentlyExpired(t *testing.T) {
	clk := newClock()
	c := mustOpen(t, store.NewMem(), CacheOptions{Clock: clk, StaleWindow: time.Hour})
	c.Store("soon.test", mxPolicy("mx.s.test", 600), "id")   // expires in 10m
	c.Store("later.test", mxPolicy("mx.l.test", 7200), "id") // expires in 2h
	c.Store("lapsed.test", mxPolicy("mx.x.test", 60), "id")  // expires in 1m
	c.Store("ancient.test", mxPolicy("mx.a.test", 30), "id") // expires in 30s

	clk.Advance(5 * time.Minute) // lapsed + ancient now expired

	got := map[string]bool{}
	for _, d := range c.ExpiringWithin(10 * time.Minute) {
		got[d] = true
	}
	if !got["soon.test"] {
		t.Error("soon.test missing: deadline must be inclusive of the window")
	}
	if !got["lapsed.test"] || !got["ancient.test"] {
		t.Error("recently-expired entries missing: the refresher would abandon them")
	}
	if got["later.test"] {
		t.Error("later.test included beyond the window")
	}

	// Push ancient.test beyond the stale window: no longer refreshable.
	clk.Advance(90 * time.Minute)
	for _, d := range c.ExpiringWithin(10 * time.Minute) {
		if d == "ancient.test" {
			t.Error("entry beyond the stale window still offered for refresh")
		}
	}
}

// TestCoalesceFetchCollapses proves stampede protection deterministically:
// a leader blocks inside fetch while N waiters join, and fetch runs once.
func TestCoalesceFetchCollapses(t *testing.T) {
	c := mustOpen(t, store.NewMem(), CacheOptions{})
	const waiters = 7

	var execs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	leaderFetch := func() (Policy, error) {
		execs.Add(1)
		close(started)
		<-release
		return mxPolicy("mx.a.test", 3600), nil
	}
	waiterFetch := func() (Policy, error) {
		execs.Add(1)
		return Policy{}, errors.New("waiter ran its own fetch")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, shared, err := c.CoalesceFetch("a.test", leaderFetch); shared || err != nil {
			t.Errorf("leader: shared=%v err=%v", shared, err)
		}
	}()
	<-started // leader is in flight; everyone below must join it
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, shared, err := c.CoalesceFetch("a.test", waiterFetch)
			if !shared || err != nil || p.Mode != ModeEnforce {
				t.Errorf("waiter: shared=%v err=%v p=%+v", shared, err, p)
			}
		}()
	}
	// Give the waiters a moment to enqueue on the in-flight call, then
	// release the leader. Joining is guaranteed by Group semantics once
	// Do observes the in-flight entry; the sleep only widens the window.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Errorf("fetch executed %d times, want 1", n)
	}
	if got := c.Stats().Collapsed; got != waiters {
		t.Errorf("Collapsed = %d, want %d", got, waiters)
	}
}

func TestCoalesceFetchFailureCountsRefreshFailure(t *testing.T) {
	clk := newClock()
	c := mustOpen(t, store.NewMem(), CacheOptions{Clock: clk})
	c.Store("a.test", mxPolicy("mx.a.test", 3600), "id1")

	boom := errors.New("policy host down")
	_, _, err := c.CoalesceFetch("a.test", func() (Policy, error) {
		return Policy{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().RefreshFailures != 1 {
		t.Errorf("RefreshFailures = %d, want 1", c.Stats().RefreshFailures)
	}
	if _, ok := c.Get("a.test"); !ok {
		t.Error("failed fetch destroyed the cached entry")
	}

	// A failed fetch for a domain with no entry is a cold-miss failure,
	// not a refresh failure.
	_, _, err = c.CoalesceFetch("cold.test", func() (Policy, error) {
		return Policy{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().RefreshFailures != 1 {
		t.Errorf("cold-miss failure counted as refresh failure: %+v", c.Stats())
	}
}

func TestCapacityEviction(t *testing.T) {
	clk := newClock()
	c := mustOpen(t, store.NewMem(), CacheOptions{Clock: clk, Max: 2})
	c.Store("short.test", mxPolicy("mx.s.test", 60), "id")
	c.Store("long.test", mxPolicy("mx.l.test", 86400), "id")
	c.Store("new.test", mxPolicy("mx.n.test", 3600), "id")
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("short.test"); ok {
		t.Error("earliest-expiring entry not evicted first")
	}
	if _, ok := c.Get("long.test"); !ok {
		t.Error("longest-lived entry evicted")
	}
}

func TestOpenEnforcesMax(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, st, CacheOptions{Clock: clk})
	c.Store("a.test", mxPolicy("mx.a.test", 60), "id")
	c.Store("b.test", mxPolicy("mx.b.test", 3600), "id")
	c.Store("c.test", mxPolicy("mx.c.test", 86400), "id")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, st2, CacheOptions{Clock: clk, Max: 1})
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}
	if _, ok := c2.Get("c.test"); !ok {
		t.Error("capacity enforcement at Open must keep the latest-expiring entries")
	}
}

func TestInvalidateUnknownDomainIsNoop(t *testing.T) {
	c := mustOpen(t, store.NewMem(), CacheOptions{})
	c.Invalidate("never-stored.test")
	if s := c.Stats(); s.PersistErrors != 0 || s.Entries != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// An invalidation is as durable as a Store: the tombstone is synced
// before Invalidate returns, so a crash cannot bring the policy back, and
// a failed sync is counted like any other persist error.
func TestInvalidateSyncsTombstone(t *testing.T) {
	st := &crashStore{Store: store.NewMem()}
	c := mustOpen(t, st, CacheOptions{})
	c.Store("a.test", mxPolicy("mx.a.test", 3600), "id1")
	c.Store("b.test", mxPolicy("mx.b.test", 3600), "id1")

	before := st.count("sync")
	c.Invalidate("a.test")
	if got := st.count("sync") - before; got != 1 {
		t.Errorf("Invalidate synced %d times, want 1", got)
	}

	st.at = len(st.calls) + 2 // the tombstone's Put lands, its Sync fails
	c.Invalidate("b.test")
	if got := c.Stats().PersistErrors; got != 1 {
		t.Errorf("PersistErrors = %d after a failed tombstone sync, want 1", got)
	}
}
