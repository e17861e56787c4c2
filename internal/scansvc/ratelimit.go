package scansvc

import (
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/resolver"
)

// TenantLimiter is a per-tenant token bucket over submitted domains:
// admitting a job costs one token per domain, buckets refill at Rate
// tokens per second up to Burst. Admission is non-blocking — a tenant
// over budget is rejected (HTTP 429) rather than queued, so one noisy
// tenant cannot grow the durable queue without bound.
type TenantLimiter struct {
	// Rate is tokens (domains) per second per tenant; Burst the bucket
	// capacity. Rate <= 0 disables limiting entirely.
	Rate  float64
	Burst float64

	mu      sync.Mutex
	buckets map[string]*resolver.RateLimiter
}

// NewTenantLimiter builds a limiter; rate <= 0 disables limiting.
func NewTenantLimiter(rate, burst float64) *TenantLimiter {
	return &TenantLimiter{Rate: rate, Burst: burst, buckets: make(map[string]*resolver.RateLimiter)}
}

// Admit consumes cost tokens from the tenant's bucket, reporting
// whether the submission is within budget. A nil limiter or a
// non-positive rate always admits. A cost beyond Burst always rejects,
// even against a full bucket: the job can never fit, so it is better
// to say so at once. A new tenant starts with a full bucket, and a
// rejection takes nothing from it.
func (l *TenantLimiter) Admit(tenant string, cost int) bool {
	if l == nil || l.Rate <= 0 {
		return true
	}
	if float64(cost) > l.Burst {
		return false
	}
	l.mu.Lock()
	b := l.buckets[tenant]
	if b == nil {
		b = resolver.NewRateLimiter(l.Rate, l.Burst)
		l.buckets[tenant] = b
	}
	l.mu.Unlock()
	return b.Allow(time.Now(), cost)
}
