package sf

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupCollapsesConcurrentCalls(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	// Leader blocks inside fn until the joiners have had time to queue
	// behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared := g.Do("k", func() int {
			close(started)
			<-release
			calls.Add(1)
			return 42
		})
		if v != 42 || shared {
			t.Errorf("leader: got (%d, %v), want (42, false)", v, shared)
		}
	}()
	<-started
	var sharedCount atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared := g.Do("k", func() int { calls.Add(1); return 42 })
			if v != 42 {
				t.Errorf("joiner: got %d, want 42", v)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let joiners reach the in-flight map
	close(release)
	wg.Wait()
	// Any joiner that raced in after release legitimately re-runs fn, so
	// the invariant is calls + shared == 9 — no execution is both shared
	// and run, and none is lost.
	if calls.Load()+sharedCount.Load() != 9 {
		t.Fatalf("fn ran %d times with %d shared results, want them to sum to 9",
			calls.Load(), sharedCount.Load())
	}
	if sharedCount.Load() == 0 {
		t.Fatal("no joiner shared the leader's result")
	}
}

func TestGroupSequentialCallsRunEachTime(t *testing.T) {
	var g Group[int]
	n := 0
	for i := 0; i < 3; i++ {
		v, shared := g.Do("k", func() int { n++; return n })
		if shared {
			t.Fatalf("call %d unexpectedly shared", i)
		}
		if v != i+1 {
			t.Fatalf("call %d: got %d", i, v)
		}
	}
}

func TestGroupPanicReleasesWaiters(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		<-started
		v, shared := g.Do("k", func() int { return 7 })
		// Either it joined the panicking leader (zero value) or arrived
		// after cleanup and ran fresh (7) — both are live outcomes; the
		// test is that it returns at all.
		_ = v
		_ = shared
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leader panic did not propagate")
			}
		}()
		g.Do("k", func() int {
			close(started)
			panic("boom")
		})
	}()
	<-waiterDone
}

func TestCacheMemoizesAndCounts(t *testing.T) {
	var c Cache[string]
	var calls atomic.Int64
	fn := func(v string) func() string {
		return func() string { calls.Add(1); return v }
	}
	if v, shared := c.Do("a", fn("va")); v != "va" || shared {
		t.Fatalf("first call: (%q, %v)", v, shared)
	}
	if v, shared := c.Do("a", fn("OTHER")); v != "va" || !shared {
		t.Fatalf("memo hit: (%q, %v)", v, shared)
	}
	if v, _ := c.Do("b", fn("vb")); v != "vb" {
		t.Fatalf("second key: %q", v)
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", calls.Load())
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats %+v, want Hits=1 Misses=2", s)
	}
}

// TestCacheConcurrentCallersWait holds fn open while other callers of
// the same key arrive: every one of them must wait for the running call
// and return its value, and fn must run once.
func TestCacheConcurrentCallersWait(t *testing.T) {
	var c Cache[int]
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, shared := c.Do("k", func() int {
			close(started)
			<-release
			calls.Add(1)
			return 42
		}); v != 42 || shared {
			t.Errorf("first caller: got (%d, %v), want (42, false)", v, shared)
		}
	}()
	<-started
	const waiters = 8
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, shared := c.Do("k", func() int { calls.Add(1); return -1 }); v != 42 || !shared {
				t.Errorf("waiter: got (%d, %v), want (42, true)", v, shared)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the waiters block on the entry
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != waiters {
		t.Fatalf("stats %+v, want Misses=1 Hits=%d", s, waiters)
	}
}

// TestCachePanicYieldsZero pins the failure contract: the panic reaches
// the caller that ran fn, and the key answers the zero value afterwards
// instead of deadlocking or running fn again.
func TestCachePanicYieldsZero(t *testing.T) {
	var c Cache[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in fn did not propagate")
			}
		}()
		c.Do("k", func() int { panic("boom") })
	}()
	if v, shared := c.Do("k", func() int { return 7 }); v != 0 || !shared {
		t.Fatalf("after panic: got (%d, %v), want (0, true)", v, shared)
	}
}

// TestCacheAnalyticHitIdentity pins the identity the scanner's shared
// probe test relies on: T concurrent calls over U keys yield exactly U
// misses and T-U hits, and fn runs once per key. Many short rounds give
// two first callers of a key the chance to race on creating its entry.
func TestCacheAnalyticHitIdentity(t *testing.T) {
	const rounds, T, U = 300, 64, 3
	for r := 0; r < rounds; r++ {
		var c Cache[int]
		var calls atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < T; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				key := string(rune('a' + i%U))
				c.Do(key, func() int { calls.Add(1); return i })
			}()
		}
		wg.Wait()
		if s := c.Stats(); s.Misses != U || s.Hits != T-U || calls.Load() != U {
			t.Fatalf("round %d: stats %+v and %d calls, want Misses=%d Hits=%d and %d calls",
				r, s, calls.Load(), U, T-U, U)
		}
	}
}
