package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/sf"
)

// startServer boots an authoritative server with a canned example.com zone.
func startServer(t testing.TB) (*dnsserver.Server, *Client) {
	t.Helper()
	z := dnszone.New("example.com")
	add := func(rr dnsmsg.RR) { z.MustAdd(rr) }
	add(dnsmsg.RR{Name: "example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.AData{Addr: netip.MustParseAddr("192.0.2.1")}})
	add(dnsmsg.RR{Name: "example.com", Type: dnsmsg.TypeAAAA, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}})
	add(dnsmsg.RR{Name: "example.com", Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.MXData{Preference: 20, Host: "mx2.example.com"}})
	add(dnsmsg.RR{Name: "example.com", Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.MXData{Preference: 10, Host: "mx1.example.com"}})
	add(dnsmsg.RR{Name: "_mta-sts.example.com", Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN, TTL: 60,
		Data: dnsmsg.NewTXT("v=STSv1; id=20240431;")})
	add(dnsmsg.RR{Name: "mta-sts.example.com", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60,
		Data: dnsmsg.CNAMEData{Target: "policy.example.com"}})
	add(dnsmsg.RR{Name: "policy.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60,
		Data: dnsmsg.AData{Addr: netip.MustParseAddr("192.0.2.80")}})

	srv := serveZone(t, z, "127.0.0.1:0")
	return srv, New(srv.Addr().String())
}

func TestLookupTXT(t *testing.T) {
	_, c := startServer(t)
	vals, err := c.LookupTXT(context.Background(), "_mta-sts.example.com")
	if err != nil {
		t.Fatalf("LookupTXT: %v", err)
	}
	if len(vals) != 1 || vals[0] != "v=STSv1; id=20240431;" {
		t.Errorf("TXT = %v", vals)
	}
}

func TestLookupMXSorted(t *testing.T) {
	_, c := startServer(t)
	mxs, err := c.LookupMX(context.Background(), "example.com")
	if err != nil {
		t.Fatalf("LookupMX: %v", err)
	}
	if len(mxs) != 2 || mxs[0].Host != "mx1.example.com" || mxs[1].Host != "mx2.example.com" {
		t.Errorf("MX = %+v", mxs)
	}
}

func TestLookupAddrs(t *testing.T) {
	_, c := startServer(t)
	addrs, err := c.LookupAddrs(context.Background(), "example.com", true)
	if err != nil {
		t.Fatalf("LookupAddrs: %v", err)
	}
	if len(addrs) != 2 {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestCNAMEFollowedAcrossRestart(t *testing.T) {
	_, c := startServer(t)
	addrs, err := c.LookupAddrs(context.Background(), "mta-sts.example.com", false)
	if err != nil {
		t.Fatalf("LookupAddrs via CNAME: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("192.0.2.80") {
		t.Errorf("addrs = %v", addrs)
	}
	target, err := c.LookupCNAME(context.Background(), "mta-sts.example.com")
	if err != nil || target != "policy.example.com" {
		t.Errorf("LookupCNAME = %q, %v", target, err)
	}
}

func TestNXDomainAndNoData(t *testing.T) {
	_, c := startServer(t)
	_, err := c.LookupTXT(context.Background(), "absent.example.com")
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("want NXDOMAIN, got %v", err)
	}
	_, err = c.LookupTXT(context.Background(), "example.com")
	if !errors.Is(err, ErrNoData) {
		t.Errorf("want NODATA, got %v", err)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound(NODATA) = false")
	}
}

func TestServFailAndRefused(t *testing.T) {
	srv, c := startServer(t)
	srv.SetBehavior(dnsserver.BehaviorServFail)
	c.Cache = nil
	_, err := c.LookupTXT(context.Background(), "_mta-sts.example.com")
	if !errors.Is(err, ErrServFail) {
		t.Errorf("want SERVFAIL, got %v", err)
	}
	srv.SetBehavior(dnsserver.BehaviorRefuse)
	_, err = c.LookupTXT(context.Background(), "_mta-sts.example.com")
	if !errors.Is(err, ErrRefused) {
		t.Errorf("want REFUSED, got %v", err)
	}
}

func TestTimeoutOnDrop(t *testing.T) {
	srv, c := startServer(t)
	srv.SetBehavior(dnsserver.BehaviorDrop)
	c.Cache = nil
	c.Timeout = 150 * time.Millisecond
	start := time.Now()
	_, err := c.LookupTXT(context.Background(), "_mta-sts.example.com")
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want timeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took too long")
	}
}

func TestRefusedOutsideZones(t *testing.T) {
	_, c := startServer(t)
	_, err := c.LookupTXT(context.Background(), "example.org")
	if !errors.Is(err, ErrRefused) {
		t.Errorf("want REFUSED for out-of-zone, got %v", err)
	}
}

func TestTCPFallbackOnTruncation(t *testing.T) {
	// Build a zone whose TXT RRset exceeds the UDP payload cap.
	z := dnszone.New("big.example")
	for i := 0; i < 40; i++ {
		z.MustAdd(dnsmsg.RR{Name: "big.example", Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN, TTL: 60,
			Data: dnsmsg.NewTXT(strings.Repeat("x", 100) + string(rune('a'+i)))})
	}
	srv := dnsserver.New(nil)
	srv.AddZone(z)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	c := New(addr.String())
	vals, err := c.LookupTXT(context.Background(), "big.example")
	if err != nil {
		t.Fatalf("LookupTXT over TCP fallback: %v", err)
	}
	if len(vals) != 40 {
		t.Errorf("got %d TXT values, want 40", len(vals))
	}
}

func TestCacheHitsAvoidNetwork(t *testing.T) {
	srv, c := startServer(t)
	ctx := context.Background()
	if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
		t.Fatal(err)
	}
	before := srv.QueryCount()
	for i := 0; i < 10; i++ {
		if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
			t.Fatal(err)
		}
	}
	if srv.QueryCount() != before {
		t.Errorf("cache miss: query count rose from %d to %d", before, srv.QueryCount())
	}
}

func TestConcurrentLookups(t *testing.T) {
	_, c := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.LookupMX(context.Background(), "example.com"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCacheLRUAndTTL(t *testing.T) {
	cache := NewCache(2)
	clk := clock.NewFake(time.Unix(1000, 0))

	cache.Put(clk.Now(), "a", dnsmsg.TypeA, entry{cname: "x"}, time.Minute)
	cache.Put(clk.Now(), "b", dnsmsg.TypeA, entry{cname: "y"}, time.Minute)
	if _, ok := cache.Get(clk.Now(), "a", dnsmsg.TypeA); !ok {
		t.Fatal("a evicted too early")
	}
	// Inserting c evicts LRU (b, since a was just touched).
	cache.Put(clk.Now(), "c", dnsmsg.TypeA, entry{cname: "z"}, time.Minute)
	if _, ok := cache.Get(clk.Now(), "b", dnsmsg.TypeA); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := cache.Get(clk.Now(), "a", dnsmsg.TypeA); !ok {
		t.Error("a should have survived")
	}
	// TTL expiry.
	clk.Advance(2 * time.Minute)
	if _, ok := cache.Get(clk.Now(), "a", dnsmsg.TypeA); ok {
		t.Error("a should have expired")
	}
	cache.Flush()
	if cache.Len(clk.Now()) != 0 {
		t.Error("Flush left entries")
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(100, 1)
	start := time.Unix(0, 0)
	clk := clock.NewFake(start)
	ctx := clock.With(context.Background(), clk)
	for i := 0; i < 11; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	slept := clk.Now().Sub(start)
	// 11 queries at 100 qps with burst 1: ~100ms of waiting.
	if slept < 80*time.Millisecond || slept > 200*time.Millisecond {
		t.Errorf("slept %v, want ~100ms", slept)
	}
}

// Allow shares Wait's bucket and refill: it takes n tokens when they
// are there, refuses without taking any when they are not, and never
// waits.
func TestRateLimiterAllow(t *testing.T) {
	l := NewRateLimiter(10, 3)
	clk := clock.NewFake(time.Unix(0, 0))
	if !l.Allow(clk.Now(), 2) || l.Allow(clk.Now(), 2) || !l.Allow(clk.Now(), 1) || l.Allow(clk.Now(), 1) {
		t.Fatal("a full 3-token bucket should give 2, refuse 2, give 1, refuse 1")
	}
	clk.Advance(150 * time.Millisecond) // 1.5 tokens at 10/s
	if l.Allow(clk.Now(), 2) || !l.Allow(clk.Now(), 1) {
		t.Error("after 150ms: want 2 refused, 1 given")
	}
	clk.Advance(time.Hour) // refill caps at the burst
	if l.Allow(clk.Now(), 4) || !l.Allow(clk.Now(), 3) {
		t.Error("after an hour: want 4 refused, 3 given")
	}
	before := clk.Now()
	if err := l.Wait(clock.With(context.Background(), clk)); err != nil || !clk.Now().After(before) {
		t.Errorf("Wait on the bucket Allow emptied = %v after %v, want it to sleep", err, clk.Now().Sub(before))
	}
}

func TestRateLimiterContextCancel(t *testing.T) {
	l := NewRateLimiter(0.001, 1)
	ctx := clock.With(context.Background(), clock.NewFake(time.Unix(0, 0))) // no real sleeping
	if err := l.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := l.Wait(cctx); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// A cancellation that arrives while Wait is already sleeping toward the
// next token must end the wait at once, not after the refill interval
// (20 s here): a cancelled job must not hold rate-limited workers.
func TestRateLimiterCancelWhileWaiting(t *testing.T) {
	l := NewRateLimiter(0.05, 1)
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := time.AfterFunc(10*time.Millisecond, cancel)
	defer stop.Stop()
	start := time.Now()
	if err := l.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("Wait returned %v after cancellation, want well under 1s", waited)
	}
}

func TestLookupCNAMEAbsent(t *testing.T) {
	_, c := startServer(t)
	// example.com exists but has no CNAME: NODATA.
	if _, err := c.LookupCNAME(context.Background(), "example.com"); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v", err)
	}
}

func TestLookupAddrsNoRecords(t *testing.T) {
	_, c := startServer(t)
	// _mta-sts.example.com has only TXT: A lookup is NODATA even with v6.
	_, err := c.LookupAddrs(context.Background(), "_mta-sts.example.com", true)
	if !IsNotFound(err) {
		t.Errorf("err = %v", err)
	}
}

func TestLookupMXEmptyName(t *testing.T) {
	_, c := startServer(t)
	// An NXDOMAIN name propagates the resolver error through LookupMX.
	if _, err := c.LookupMX(context.Background(), "ghost.example.com"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v", err)
	}
}

// Regression: a one-off REFUSED (or garbled) reply must not be served
// from the cache once the server recovers — only NXDOMAIN/NODATA
// negatives are cacheable; transient failures never are.
func TestTransientErrorsNotCached(t *testing.T) {
	srv, c := startServer(t)
	ctx := context.Background()

	srv.SetBehavior(dnsserver.BehaviorRefuse)
	if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); !errors.Is(err, ErrRefused) {
		t.Fatalf("want REFUSED, got %v", err)
	}
	srv.SetBehavior(dnsserver.BehaviorNormal)
	vals, err := c.LookupTXT(ctx, "_mta-sts.example.com")
	if err != nil || len(vals) != 1 {
		t.Errorf("REFUSED was cached: post-recovery lookup = %v, %v", vals, err)
	}

	srv.SetBehavior(dnsserver.BehaviorServFail)
	if _, err := c.LookupMX(ctx, "example.com"); !errors.Is(err, ErrServFail) {
		t.Fatalf("want SERVFAIL, got %v", err)
	}
	srv.SetBehavior(dnsserver.BehaviorNormal)
	if _, err := c.LookupMX(ctx, "example.com"); err != nil {
		t.Errorf("SERVFAIL was cached: post-recovery lookup err = %v", err)
	}
}

// NXDOMAIN, by contrast, stays briefly cached: repeat lookups must not
// hit the network again.
func TestNXDomainStillCached(t *testing.T) {
	srv, c := startServer(t)
	ctx := context.Background()
	if _, err := c.LookupTXT(ctx, "absent.example.com"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("want NXDOMAIN, got %v", err)
	}
	before := srv.QueryCount()
	for i := 0; i < 5; i++ {
		if _, err := c.LookupTXT(ctx, "absent.example.com"); !errors.Is(err, ErrNXDomain) {
			t.Fatalf("want cached NXDOMAIN, got %v", err)
		}
	}
	if got := srv.QueryCount(); got != before {
		t.Errorf("NXDOMAIN not cached: query count rose from %d to %d", before, got)
	}
}

// A client with MaxAttempts > 1 recovers from a transient SERVFAIL blip
// within a single Lookup call.
func TestRetryRecoversFromBlip(t *testing.T) {
	srv, c := startServer(t)
	c.MaxAttempts = 3
	c.RetryBase = time.Millisecond
	srv.SetBehavior(dnsserver.BehaviorServFail)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		srv.SetBehavior(dnsserver.BehaviorNormal)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var vals []string
	var err error
	// The blip may outlast one 3-attempt lookup; what must hold is that
	// lookups succeed as soon as the server recovers, with no poisoned
	// cache and no retry-loop wedge.
	for i := 0; i < 50; i++ {
		if vals, err = c.LookupTXT(ctx, "_mta-sts.example.com"); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done
	if err != nil || len(vals) != 1 {
		t.Fatalf("lookup never recovered: %v, %v", vals, err)
	}
}

// The resolver's sentinels carry their retry classification as a typed
// transient bit; errtax.Transient (the retry layer's default classifier)
// must read it, including through fmt.Errorf wrapping.
func TestTransientErrClassification(t *testing.T) {
	for _, err := range []error{ErrTimeout, ErrServFail, ErrRefused, ErrBadMessage} {
		if !errtax.Transient(err) {
			t.Errorf("errtax.Transient(%v) = false", err)
		}
		if wrapped := fmt.Errorf("%w: ctx", err); !errtax.Transient(wrapped) {
			t.Errorf("errtax.Transient(%v) = false through wrapping", wrapped)
		}
	}
	for _, err := range []error{ErrNXDomain, ErrNoData, ErrCNAMELoop, context.Canceled, nil} {
		if errtax.Transient(err) {
			t.Errorf("errtax.Transient(%v) = true", err)
		}
	}
}

// Lookup errors coalesced by the in-flight singleflight group must keep
// their taxonomy codes: every waiter shares the same typed error value.
func TestCoalescedErrorsKeepCodes(t *testing.T) {
	if c, ok := errtax.CodeOf(fmt.Errorf("%w: shared", ErrServFail)); !ok || c != errtax.CodeServFail {
		t.Fatalf("CodeOf(wrapped ErrServFail) = %q, %v", c, ok)
	}
	g := &sf.Group[error]{}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i], _ = g.Do("q", func() error {
				time.Sleep(2 * time.Millisecond)
				return fmt.Errorf("%w: coalesced", ErrServFail)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrServFail) {
			t.Errorf("waiter %d: errors.Is lost sentinel: %v", i, err)
		}
		if c, ok := errtax.CodeOf(err); !ok || c != errtax.CodeServFail {
			t.Errorf("waiter %d: CodeOf = %q, %v", i, c, ok)
		}
		if !errtax.Transient(err) {
			t.Errorf("waiter %d: coalesced SERVFAIL not transient", i)
		}
	}
}

// Regression: Len must not report expired-but-unevicted entries.
func TestCacheLenPrunesExpired(t *testing.T) {
	cache := NewCache(8)
	clk := clock.NewFake(time.Unix(1000, 0))
	cache.Put(clk.Now(), "a", dnsmsg.TypeA, entry{cname: "x"}, time.Minute)
	cache.Put(clk.Now(), "b", dnsmsg.TypeA, entry{cname: "y"}, time.Hour)
	if got := cache.Len(clk.Now()); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	clk.Advance(2 * time.Minute)
	if got := cache.Len(clk.Now()); got != 1 {
		t.Errorf("Len = %d after expiry, want 1 (expired entry still counted)", got)
	}
	if _, ok := cache.Get(clk.Now(), "b", dnsmsg.TypeA); !ok {
		t.Error("unexpired entry pruned by Len")
	}
}

func TestClientZeroValueDefaults(t *testing.T) {
	srv, _ := startServer(t)
	// A zero-value client (no cache, no rnd) must still work.
	c := &Client{ServerAddr: srv.Addr().String(), Timeout: 2 * time.Second}
	vals, err := c.LookupTXT(context.Background(), "_mta-sts.example.com")
	if err != nil || len(vals) != 1 {
		t.Errorf("zero-value client: %v, %v", vals, err)
	}
}
