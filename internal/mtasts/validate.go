package mtasts

import (
	"context"
	"errors"
	"fmt"
)

// Action is the delivery decision of a compliant sender after MTA-STS
// evaluation.
type Action int

// Delivery decisions.
const (
	// ActionDeliver: proceed with delivery over (at least opportunistic) TLS.
	ActionDeliver Action = iota
	// ActionDeliverUnvalidated: proceed despite a validation failure
	// (testing/none mode, or no usable policy — the downgrade window the
	// paper warns about).
	ActionDeliverUnvalidated
	// ActionRefuse: a compliant sender MUST NOT deliver (enforce mode with
	// a failed validation) — the "email delivery failure" outcome counted
	// in Figures 7 and 8.
	ActionRefuse
)

// String returns a short label for the action.
func (a Action) String() string {
	switch a {
	case ActionDeliver:
		return "deliver"
	case ActionDeliverUnvalidated:
		return "deliver-unvalidated"
	case ActionRefuse:
		return "refuse"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// TXTResolver provides the DNS dependency of validation. The production
// implementation is resolver.Client; tests use fixtures.
type TXTResolver interface {
	// ResolveTXT returns all TXT values at name. Absence must be reported
	// via an error satisfying IsNotFound.
	ResolveTXT(ctx context.Context, name string) ([]string, error)
	// IsNotFound classifies resolution errors meaning NXDOMAIN/NODATA.
	IsNotFound(err error) bool
}

// Validator is the sender-side MTA-STS engine: it discovers the record,
// fetches (or reuses) the policy, matches the selected MX, and renders
// the delivery decision — Figure 1 of the paper up to the connection.
// The MX certificate is judged by the delivering SMTP session
// (smtpclient.Sender), which an enforce policy makes require verified
// TLS; the Validator never connects to the MX.
type Validator struct {
	Resolver TXTResolver
	Fetcher  *Fetcher
	// Cache is the sender's TOFU policy store; nil disables caching, so
	// every evaluation fetches and no fallback policy exists.
	Cache *PolicyCache
}

// Evaluation is the full outcome of validating one (domain, MX) pair.
type Evaluation struct {
	Domain string
	MXHost string

	// RecordFound is true when a syntactically valid record was discovered.
	RecordFound bool
	// RecordErr holds the record discovery/parsing failure, if any.
	RecordErr error
	// Record is the parsed record when RecordFound.
	Record Record

	// PolicyFetched is true when a valid policy was obtained (from cache or
	// network).
	PolicyFetched bool
	// PolicyFromCache marks cache hits.
	PolicyFromCache bool
	// PolicyStale marks a cached policy served past its max_age because
	// revalidation failed — the entry stays within the store's stale
	// window and keeps enforcing until a successful refetch replaces it.
	PolicyStale bool
	// PolicyErr holds the fetch/parse failure, if any.
	PolicyErr error
	// Policy is the effective policy when PolicyFetched.
	Policy Policy

	// MXMatched is true when the MX host matches a policy mx pattern.
	MXMatched bool

	// Action is the final delivery decision.
	Action Action
}

// Validate evaluates delivery of mail for domain via mxHost.
//
// Per RFC 8461: no (or unusable) record means MTA-STS does not apply; a
// record without a fetchable policy falls back to any cached policy, and
// otherwise to unvalidated delivery; with a policy in enforce mode, an MX
// mismatch forbids delivery.
func (v *Validator) Validate(ctx context.Context, domain, mxHost string) Evaluation {
	ev := Evaluation{Domain: domain, MXHost: mxHost, Action: ActionDeliver}

	// Step 1: discover the record.
	txts, err := v.Resolver.ResolveTXT(ctx, "_mta-sts."+domain)
	if err != nil && !v.Resolver.IsNotFound(err) {
		// Transient DNS failure: RFC 8461 says continue with cache if
		// present, else deliver (possibly unvalidated). The error is
		// recorded either way — a cache hit must not erase the failure
		// from JSONL/report output.
		ev.RecordErr = err
		if cached, ok, stale := v.cacheGet(domain); ok {
			ev.PolicyFetched, ev.PolicyFromCache, ev.PolicyStale = true, true, stale
			ev.Policy = cached.Policy
			return finish(ev)
		}
		ev.Action = ActionDeliverUnvalidated
		return ev
	}
	rec, recErr := DiscoverRecord(txts)
	if recErr != nil {
		ev.RecordErr = recErr
		if errors.Is(recErr, ErrNoRecord) {
			// MTA-STS not deployed; but a cached policy must still be honored
			// until it expires (§5.1 — removal requires a proper wind-down).
			if cached, ok := v.cacheFresh(domain); ok {
				ev.PolicyFetched, ev.PolicyFromCache = true, true
				ev.Policy = cached.Policy
				return finish(ev)
			}
			return ev
		}
		// A malformed record means MTA-STS is treated as not deployed, but
		// cached policies again survive.
		if cached, ok := v.cacheFresh(domain); ok {
			ev.PolicyFetched, ev.PolicyFromCache = true, true
			ev.Policy = cached.Policy
			return finish(ev)
		}
		ev.Action = ActionDeliverUnvalidated
		return ev
	}
	ev.RecordFound = true
	ev.Record = rec

	// Step 2: policy from cache (fresh, same id) or network.
	if cached, ok := v.cacheFresh(domain); ok && cached.RecordID == rec.ID {
		ev.PolicyFetched, ev.PolicyFromCache = true, true
		ev.Policy = cached.Policy
		return finish(ev)
	}
	policy, fetchErr := v.fetchAndStore(ctx, domain, rec.ID)
	if fetchErr != nil {
		ev.PolicyErr = fetchErr
		// Fetch failure: fall back to a cached policy — possibly stale-id,
		// possibly expired within the stale window. The entry is never
		// evicted on failure; only a successful fetch replaces it.
		if cached, ok, stale := v.cacheGet(domain); ok {
			ev.PolicyFetched, ev.PolicyFromCache, ev.PolicyStale = true, true, stale
			ev.Policy = cached.Policy
			return finish(ev)
		}
		// No usable policy: deliver, unvalidated — the TLS-fallback
		// downgrade the paper highlights (§4.3.3).
		ev.Action = ActionDeliverUnvalidated
		return ev
	}
	ev.PolicyFetched = true
	ev.Policy = policy
	return finish(ev)
}

// fetchAndStore retrieves the policy for domain and caches it under
// recordID. Concurrent calls for one domain collapse into a single
// network fetch (and a single Store); the leader performs the write,
// waiters share the result.
func (v *Validator) fetchAndStore(ctx context.Context, domain, recordID string) (Policy, error) {
	fetch := func() (Policy, error) {
		policy, _, err := v.Fetcher.Fetch(ctx, domain)
		if err != nil {
			return Policy{}, err
		}
		if v.Cache != nil {
			v.Cache.Store(domain, policy, recordID)
		}
		return policy, nil
	}
	if v.Cache == nil {
		return fetch()
	}
	policy, _, err := v.Cache.CoalesceFetch(domain, fetch)
	return policy, err
}

// Refresh revalidates the cached policy for domain in place: it re-runs
// record discovery and the policy fetch, replacing the cached entry only
// on success. Unlike an eviction-first refetch, any failure — transient
// DNS, a withdrawn record, a dead policy host — leaves the old entry
// serving deliveries until it expires (and through the store's stale
// window after that), so a refresh hiccup can never reopen the
// TLS-fallback downgrade window. This is what RFC 8461 §3.3's "fetch the
// policy file at regular intervals" must mean for a sender that wants to
// keep its §5 TOFU protection.
func (v *Validator) Refresh(ctx context.Context, domain string) error {
	txts, err := v.Resolver.ResolveTXT(ctx, "_mta-sts."+domain)
	if err != nil {
		return fmt.Errorf("mtasts: refresh %s: record discovery: %w", domain, err)
	}
	rec, err := DiscoverRecord(txts)
	if err != nil {
		// Includes ErrNoRecord: a withdrawn record does not clear sender
		// caches (§5.1 — removal requires a proper wind-down).
		return fmt.Errorf("mtasts: refresh %s: %w", domain, err)
	}
	if _, err := v.fetchAndStore(ctx, domain, rec.ID); err != nil {
		return fmt.Errorf("mtasts: refresh %s: %w", domain, err)
	}
	return nil
}

// cacheFresh returns the fresh cached policy for domain, tolerating a nil
// cache.
func (v *Validator) cacheFresh(domain string) (CachedPolicy, bool) {
	if v.Cache == nil {
		return CachedPolicy{}, false
	}
	return v.Cache.Get(domain)
}

// cacheGet returns a usable cached policy for the fallback paths: a fresh
// entry when one exists, otherwise a stale one still inside the cache's
// stale window. stale reports which branch served.
func (v *Validator) cacheGet(domain string) (cached CachedPolicy, ok, stale bool) {
	if v.Cache == nil {
		return CachedPolicy{}, false, false
	}
	if e, ok := v.Cache.Get(domain); ok {
		return e, true, false
	}
	if e, ok := v.Cache.GetStale(domain); ok {
		return e, true, true
	}
	return CachedPolicy{}, false, false
}

// finish applies MX matching to an evaluation that has an effective
// policy. Mode none requests no validation; a mismatch refuses under
// enforce and delivers unvalidated under testing.
func finish(ev Evaluation) Evaluation {
	ev.MXMatched = ev.Policy.Matches(ev.MXHost)
	switch {
	case ev.MXMatched || ev.Policy.Mode == ModeNone:
		ev.Action = ActionDeliver
	case ev.Policy.Mode == ModeEnforce:
		ev.Action = ActionRefuse
	default:
		ev.Action = ActionDeliverUnvalidated
	}
	return ev
}
