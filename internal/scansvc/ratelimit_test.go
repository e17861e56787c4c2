package scansvc

import "testing"

// TestTenantLimiterSemantics pins the admission rules the shared token
// bucket must keep: nil and rate <= 0 admit everything, a new tenant
// starts full, a cost above Burst never fits (a Burst below 1 admits no
// domain at all), a rejection takes nothing, and tenants do not share.
// The steps run in order against the limiters they name; refill is
// resolver.RateLimiter's, pinned by TestRateLimiterAllow.
func TestTenantLimiterSemantics(t *testing.T) {
	var nilLimiter *TenantLimiter
	full := NewTenantLimiter(1e-9, 5) // refills nothing within the test
	fractional := NewTenantLimiter(1e9, 0.5)
	steps := []struct {
		name   string
		l      *TenantLimiter
		tenant string
		cost   int
		want   bool
	}{
		{"nil limiter", nilLimiter, "a", 1 << 20, true},
		{"zero rate", NewTenantLimiter(0, 1), "a", 1 << 20, true},
		{"negative rate", NewTenantLimiter(-1, 0), "a", 1 << 20, true},
		{"over burst on a full bucket", full, "a", 6, false},
		{"new tenant starts full", full, "a", 5, true},
		{"empty bucket", full, "a", 1, false},
		{"other tenant has its own bucket", full, "b", 3, true},
		{"rejected cost", full, "b", 3, false},
		{"rejection took nothing", full, "b", 2, true},
		{"burst below 1 admits no domain", fractional, "a", 1, false},
		{"burst below 1, again", fractional, "a", 1, false},
		{"burst below 1 admits an empty job", fractional, "a", 0, true},
	}
	for _, s := range steps {
		if got := s.l.Admit(s.tenant, s.cost); got != s.want {
			t.Errorf("%s: Admit(%q, %d) = %v, want %v", s.name, s.tenant, s.cost, got, s.want)
		}
	}
}
