package mtasts

import (
	"fmt"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/store"
)

func testPolicy(maxAge int64) Policy {
	return Policy{Version: Version, Mode: ModeEnforce, MaxAge: maxAge,
		MXPatterns: []string{"mx.example.com"}}
}

func TestCacheStoreGet(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	pc := mustOpen(t, store.NewMem(), CacheOptions{Max: 10, Clock: clk})

	pc.Store("example.com", testPolicy(3600), "id1")
	e, ok := pc.Get("example.com")
	if !ok || e.RecordID != "id1" || e.Policy.MaxAge != 3600 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}

	// Within max_age: fresh.
	clk.Advance(59 * time.Minute)
	if _, ok := pc.Get("example.com"); !ok {
		t.Error("entry expired too early")
	}
	// Beyond max_age: expired.
	clk.Advance(2 * time.Minute)
	if _, ok := pc.Get("example.com"); ok {
		t.Error("entry should have expired")
	}
}

func TestCacheNeedsRefresh(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	pc := mustOpen(t, store.NewMem(), CacheOptions{Max: 10, Clock: clk})

	if !pc.NeedsRefresh("example.com", "id1") {
		t.Error("empty cache must need refresh")
	}
	pc.Store("example.com", testPolicy(3600), "id1")
	if pc.NeedsRefresh("example.com", "id1") {
		t.Error("same id must not need refresh")
	}
	// The id changed in DNS: refetch even though max_age has not elapsed.
	if !pc.NeedsRefresh("example.com", "id2") {
		t.Error("changed id must need refresh")
	}
}

func TestCacheZeroMaxAgeNotStored(t *testing.T) {
	pc := NewPolicyCache(10)
	pc.Store("example.com", testPolicy(0), "id1")
	if pc.Len() != 0 {
		t.Error("zero max_age should not be cached")
	}
}

func TestCacheEviction(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	pc := mustOpen(t, store.NewMem(), CacheOptions{Max: 3, Clock: clk})
	for i := 0; i < 3; i++ {
		pc.Store(fmt.Sprintf("d%d.example", i), testPolicy(int64(100*(i+1))), "id")
	}
	// Full: inserting a new domain evicts the earliest-expiring (d0).
	pc.Store("d3.example", testPolicy(1000), "id")
	if pc.Len() != 3 {
		t.Fatalf("Len = %d", pc.Len())
	}
	if _, ok := pc.Get("d0.example"); ok {
		t.Error("d0 should have been evicted")
	}
	if _, ok := pc.Get("d3.example"); !ok {
		t.Error("d3 should be present")
	}
	// Updating an existing entry does not evict.
	pc.Store("d3.example", testPolicy(2000), "id2")
	if pc.Len() != 3 {
		t.Errorf("update changed Len to %d", pc.Len())
	}
}

func TestCacheInvalidate(t *testing.T) {
	pc := NewPolicyCache(10)
	pc.Store("example.com", testPolicy(3600), "id1")
	pc.Invalidate("example.com")
	if _, ok := pc.Get("example.com"); ok {
		t.Error("Invalidate did not remove entry")
	}
}

// Property: cache freshness is exactly t < FetchedAt + MaxAge.
func TestCachedPolicyFresh(t *testing.T) {
	base := time.Unix(5000, 0)
	e := CachedPolicy{FetchedAt: base, Expires: base.Add(100 * time.Second)}
	if !e.Fresh(base.Add(99 * time.Second)) {
		t.Error("99s should be fresh")
	}
	if e.Fresh(base.Add(100 * time.Second)) {
		t.Error("exactly max_age should be stale")
	}
}

func TestCacheConcurrent(t *testing.T) {
	pc := NewPolicyCache(100)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			d := fmt.Sprintf("d%d.example", i)
			for j := 0; j < 500; j++ {
				pc.Store(d, testPolicy(60), "id")
				pc.Get(d)
				pc.NeedsRefresh(d, "id")
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestCacheGetStaleWindow(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	pc := mustOpen(t, store.NewMem(), CacheOptions{Max: 10, StaleWindow: time.Hour, Clock: clk})
	pc.Store("example.com", testPolicy(60), "id1")

	// Expired but inside the stale window: Get misses, GetStale serves,
	// and the entry is retained for a later successful refetch.
	clk.Advance(10 * time.Minute)
	if _, ok := pc.Get("example.com"); ok {
		t.Error("expired entry served as fresh")
	}
	if e, ok := pc.GetStale("example.com"); !ok || e.RecordID != "id1" {
		t.Error("expired entry not served stale inside the window")
	}
	if pc.Len() != 1 {
		t.Error("expired entry evicted inside the stale window")
	}

	// Beyond the stale window: gone for good.
	clk.Advance(2 * time.Hour)
	if _, ok := pc.GetStale("example.com"); ok {
		t.Error("entry served beyond the stale window")
	}
	if pc.Len() != 0 {
		t.Error("beyond-window entry not pruned")
	}
}

func TestCacheExpiringWithinBoundaries(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	pc := mustOpen(t, store.NewMem(), CacheOptions{Max: 10, StaleWindow: time.Hour, Clock: clk})

	pc.Store("exact.example", testPolicy(600), "id") // expires exactly at the deadline
	pc.Store("later.example", testPolicy(601), "id") // expires just past it
	pc.Store("lapsed.example", testPolicy(60), "id") // expires before the first tick
	clk.Advance(2 * time.Minute)                     // lapsed.example now expired

	got := map[string]bool{}
	for _, d := range pc.ExpiringWithin(8 * time.Minute) {
		got[d] = true
	}
	if !got["exact.example"] {
		t.Error("deadline must be inclusive: an entry expiring exactly at now+window was skipped")
	}
	if got["later.example"] {
		t.Error("entry past the window included")
	}
	if !got["lapsed.example"] {
		t.Error("recently-expired entry skipped: it would never be refreshed and silently die")
	}

	// Beyond the stale window the lapsed entry stops being refreshable.
	clk.Advance(90 * time.Minute)
	for _, d := range pc.ExpiringWithin(8 * time.Minute) {
		if d == "lapsed.example" {
			t.Error("entry beyond the stale window still offered for refresh")
		}
	}
}
