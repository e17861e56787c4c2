package mtasts

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/store"
)

// fixtureResolver serves TXT values from a map; absent names are not-found.
type fixtureResolver struct {
	txt  map[string][]string
	errs map[string]error
}

var errFixtureNotFound = errors.New("fixture: not found")

func (f *fixtureResolver) ResolveTXT(ctx context.Context, name string) ([]string, error) {
	if err, ok := f.errs[name]; ok {
		return nil, err
	}
	if v, ok := f.txt[name]; ok {
		return v, nil
	}
	return nil, errFixtureNotFound
}

func (f *fixtureResolver) IsNotFound(err error) bool { return errors.Is(err, errFixtureNotFound) }

// newValidatorEnv builds a Validator backed by a live HTTPS policy server
// serving the given policy body.
func newValidatorEnv(t *testing.T, policyBody string, status int) (*Validator, *fixtureResolver) {
	t.Helper()
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"), policyHandler(policyBody, status))
	res := &fixtureResolver{txt: map[string][]string{
		"_mta-sts.example.com": {"v=STSv1; id=20240431;"},
	}}
	v := &Validator{
		Resolver: res,
		Fetcher: &Fetcher{
			Resolver: loopbackResolver(), RootCAs: ca.Pool(),
			Port: srv.port, Timeout: 3 * time.Second,
		},
		Cache: NewPolicyCache(16),
	}
	return v, res
}

const enforcePolicy = "version: STSv1\nmode: enforce\nmx: mx.example.com\nmx: *.backup.example.com\nmax_age: 86400\n"
const testingPolicy = "version: STSv1\nmode: testing\nmx: mx.example.com\nmax_age: 86400\n"
const nonePolicy = "version: STSv1\nmode: none\nmax_age: 86400\n"

func TestValidateHappyPath(t *testing.T) {
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ev := v.Validate(context.Background(), "example.com", "mx.example.com")
	if !ev.RecordFound || !ev.PolicyFetched || !ev.MXMatched || ev.Action != ActionDeliver {
		t.Errorf("ev = %+v", ev)
	}
}

func TestValidateWildcardMX(t *testing.T) {
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ev := v.Validate(context.Background(), "example.com", "b1.backup.example.com")
	if !ev.MXMatched || ev.Action != ActionDeliver {
		t.Errorf("wildcard: ev=%+v", ev)
	}
}

func TestValidateEnforceMXMismatchRefuses(t *testing.T) {
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ev := v.Validate(context.Background(), "example.com", "rogue.example.org")
	if ev.MXMatched || ev.Action != ActionRefuse {
		t.Errorf("enforce mismatch: ev=%+v", ev)
	}
}

func TestValidateTestingMXMismatchDelivers(t *testing.T) {
	v, _ := newValidatorEnv(t, testingPolicy, http.StatusOK)
	ev := v.Validate(context.Background(), "example.com", "rogue.example.org")
	if ev.Action != ActionDeliverUnvalidated {
		t.Errorf("testing mismatch: ev=%+v", ev)
	}
}

func TestValidateModeNoneSkipsValidation(t *testing.T) {
	v, _ := newValidatorEnv(t, nonePolicy, http.StatusOK)
	ev := v.Validate(context.Background(), "example.com", "whatever.example.org")
	if ev.Action != ActionDeliver {
		t.Errorf("mode none: ev=%+v", ev)
	}
}

func TestValidateNoRecord(t *testing.T) {
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	delete(res.txt, "_mta-sts.example.com")
	ev := v.Validate(context.Background(), "example.com", "mx.example.com")
	if ev.RecordFound || ev.Action != ActionDeliver || !errors.Is(ev.RecordErr, ErrNoRecord) {
		t.Errorf("no record: ev=%+v", ev)
	}
}

func TestValidateMalformedRecordTreatedAsAbsent(t *testing.T) {
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	res.txt["_mta-sts.example.com"] = []string{"v=STSv1; id=bad-id;"}
	ev := v.Validate(context.Background(), "example.com", "anything.example.org")
	if ev.RecordFound || ev.Action == ActionRefuse {
		t.Errorf("malformed record: ev=%+v", ev)
	}
}

func TestValidatePolicyFetchFailureFallsBackUnvalidated(t *testing.T) {
	// 404 on the policy file with an empty cache: the sender proceeds
	// without MTA-STS — the downgrade window of §4.3.3.
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusNotFound)
	ev := v.Validate(context.Background(), "example.com", "rogue.example.org")
	if ev.Action != ActionDeliverUnvalidated || ev.PolicyFetched {
		t.Errorf("fetch failure: ev=%+v", ev)
	}
	if StageOf(ev.PolicyErr) != StageHTTP {
		t.Errorf("PolicyErr stage = %v", StageOf(ev.PolicyErr))
	}
}

func TestValidateCachedPolicySurvivesFetchFailure(t *testing.T) {
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	// Prime the cache.
	v.Validate(ctx, "example.com", "mx.example.com")
	// Break the fetch path entirely; same record id → cache hit, enforce
	// still applies.
	v.Fetcher.Resolver = AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
		return nil, errors.New("resolver down")
	})
	ev := v.Validate(ctx, "example.com", "rogue.example.org")
	if !ev.PolicyFromCache || ev.Action != ActionRefuse {
		t.Errorf("cached enforce: ev=%+v", ev)
	}
}

func TestValidateCachedPolicySurvivesRecordRemoval(t *testing.T) {
	// §2.6: abruptly removing the record does not clear sender caches.
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	v.Validate(ctx, "example.com", "mx.example.com")
	delete(res.txt, "_mta-sts.example.com")
	ev := v.Validate(ctx, "example.com", "rogue.example.org")
	if !ev.PolicyFromCache || ev.Action != ActionRefuse {
		t.Errorf("cache after record removal: ev=%+v", ev)
	}
}

func TestValidateIDChangeTriggersRefetch(t *testing.T) {
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	v.Validate(ctx, "example.com", "mx.example.com")
	// Change the record id; the next validation must refetch (cache miss).
	res.txt["_mta-sts.example.com"] = []string{"v=STSv1; id=20250101;"}
	ev := v.Validate(ctx, "example.com", "mx.example.com")
	if ev.PolicyFromCache {
		t.Errorf("id change should force refetch: ev=%+v", ev)
	}
}

func TestValidateTransientDNSWithCache(t *testing.T) {
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	v.Validate(ctx, "example.com", "mx.example.com")
	res.errs = map[string]error{"_mta-sts.example.com": errors.New("SERVFAIL")}
	ev := v.Validate(ctx, "example.com", "rogue.example.org")
	if !ev.PolicyFromCache || ev.Action != ActionRefuse {
		t.Errorf("transient DNS with cache: ev=%+v", ev)
	}
}

func TestValidateTransientDNSWithoutCache(t *testing.T) {
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	res.errs = map[string]error{"_mta-sts.example.com": errors.New("SERVFAIL")}
	ev := v.Validate(context.Background(), "example.com", "mx.example.com")
	if ev.Action != ActionDeliverUnvalidated {
		t.Errorf("transient DNS without cache: ev=%+v", ev)
	}
}

func TestValidateDowngradeAttackScenario(t *testing.T) {
	// End-to-end enforcement of the attack MTA-STS exists to stop: an
	// attacker redirects MX resolution to a rogue host. With an enforce
	// policy cached, the sender must refuse.
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	v.Validate(ctx, "example.com", "mx.example.com")
	ev := v.Validate(ctx, "example.com", "attacker.evil.net")
	if ev.Action != ActionRefuse {
		t.Errorf("downgrade scenario: ev=%+v", ev)
	}
}

func TestActionString(t *testing.T) {
	if ActionDeliver.String() != "deliver" ||
		ActionDeliverUnvalidated.String() != "deliver-unvalidated" ||
		ActionRefuse.String() != "refuse" ||
		Action(9).String() != "action(9)" {
		t.Error("Action.String mismatch")
	}
}

// The transient-DNS error must be recorded even when a cached policy
// serves the evaluation — losing it from JSONL/report output hid real
// resolver trouble behind healthy-looking cache hits.
func TestValidateTransientDNSCacheHitRecordsErr(t *testing.T) {
	v, res := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	v.Validate(ctx, "example.com", "mx.example.com")
	servfail := errors.New("SERVFAIL")
	res.errs = map[string]error{"_mta-sts.example.com": servfail}
	ev := v.Validate(ctx, "example.com", "mx.example.com")
	if !ev.PolicyFromCache {
		t.Fatalf("expected cache hit: ev=%+v", ev)
	}
	if !errors.Is(ev.RecordErr, servfail) {
		t.Errorf("RecordErr = %v, want the transient DNS failure recorded on the cache-hit path", ev.RecordErr)
	}
}

// With a stale-retaining cache, a policy past max_age whose refetch
// fails keeps enforcing (marked PolicyStale) instead of downgrading.
func TestValidateStaleFallbackWhenFetchFails(t *testing.T) {
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	clk := clock.NewFake(time.Now())
	v.Cache = mustOpen(t, store.NewMem(), CacheOptions{
		Max: 16, StaleWindow: 48 * time.Hour, Clock: clk,
	})
	v.Validate(ctx, "example.com", "mx.example.com")

	// Expire the policy and break the fetch path.
	clk.Advance(25 * time.Hour)
	v.Fetcher.Resolver = AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
		return nil, errors.New("policy host down")
	})

	ev := v.Validate(ctx, "example.com", "rogue.example.org")
	if !ev.PolicyFromCache || !ev.PolicyStale || ev.Action != ActionRefuse {
		t.Errorf("stale fallback: ev=%+v", ev)
	}
	if ev.PolicyErr == nil {
		t.Error("fetch failure not recorded")
	}
}

// Refresh revalidates in place: a failure leaves the cached entry
// untouched; a success replaces it.
func TestRefreshReplacesOnlyOnSuccess(t *testing.T) {
	v, _ := newValidatorEnv(t, enforcePolicy, http.StatusOK)
	ctx := context.Background()
	v.Validate(ctx, "example.com", "mx.example.com")
	pc := v.Cache
	before, ok := pc.Get("example.com")
	if !ok {
		t.Fatal("policy not cached")
	}

	good := v.Fetcher.Resolver
	v.Fetcher.Resolver = AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
		return nil, errors.New("policy host down")
	})
	if err := v.Refresh(ctx, "example.com"); err == nil {
		t.Fatal("Refresh succeeded with the fetch path down")
	}
	after, ok := pc.Get("example.com")
	if !ok {
		t.Fatal("failed Refresh evicted the cached policy")
	}
	if !after.FetchedAt.Equal(before.FetchedAt) {
		t.Error("failed Refresh replaced the entry")
	}

	v.Fetcher.Resolver = good
	if err := v.Refresh(ctx, "example.com"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	refreshed, ok := pc.Get("example.com")
	if !ok || !refreshed.FetchedAt.After(before.FetchedAt) {
		t.Errorf("successful Refresh did not replace the entry: %+v", refreshed)
	}
}

// A nil Cache means "no cache": every path that would consult one —
// the transient-DNS, malformed-record and fetch-failure fallbacks, and
// Refresh — must run without panicking and fetch at most once.
func TestValidateNilCache(t *testing.T) {
	ca := newFetcherCA(t)
	var fetches, status atomic.Int32
	status.Store(http.StatusOK)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fetches.Add(1)
			policyHandler(enforcePolicy, int(status.Load())).ServeHTTP(w, r)
		}))
	res := &fixtureResolver{txt: map[string][]string{
		"_mta-sts.example.com": {"v=STSv1; id=20240431;"},
	}}
	v := &Validator{
		Resolver: res,
		Fetcher: &Fetcher{
			Resolver: loopbackResolver(), RootCAs: ca.Pool(),
			Port: srv.port, Timeout: 3 * time.Second,
		},
	}
	ctx := context.Background()
	expect := func(path string, wantFetches int32, want Action, ev Evaluation) {
		t.Helper()
		if got := fetches.Swap(0); got != wantFetches {
			t.Errorf("%s: %d policy fetches, want %d", path, got, wantFetches)
		}
		if ev.Action != want || ev.PolicyFromCache {
			t.Errorf("%s: ev = %+v", path, ev)
		}
	}

	expect("uncached fetch", 1, ActionDeliver, v.Validate(ctx, "example.com", "mx.example.com"))

	res.errs = map[string]error{"_mta-sts.example.com": errors.New("SERVFAIL")}
	expect("transient DNS", 0, ActionDeliverUnvalidated, v.Validate(ctx, "example.com", "mx.example.com"))
	res.errs = nil

	res.txt["_mta-sts.example.com"] = []string{"v=STSv1; id=bad-id;"}
	expect("malformed record", 0, ActionDeliverUnvalidated, v.Validate(ctx, "example.com", "mx.example.com"))
	res.txt["_mta-sts.example.com"] = []string{"v=STSv1; id=20240431;"}

	status.Store(http.StatusNotFound)
	expect("fetch failure", 1, ActionDeliverUnvalidated, v.Validate(ctx, "example.com", "rogue.example.org"))

	if err := v.Refresh(ctx, "example.com"); err == nil {
		t.Error("Refresh succeeded against a 404 policy")
	}
	if got := fetches.Swap(0); got != 1 {
		t.Errorf("failed Refresh: %d policy fetches, want 1", got)
	}
	status.Store(http.StatusOK)
	if err := v.Refresh(ctx, "example.com"); err != nil {
		t.Errorf("Refresh: %v", err)
	}
	if got := fetches.Swap(0); got != 1 {
		t.Errorf("Refresh: %d policy fetches, want 1", got)
	}
}
