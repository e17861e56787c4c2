package retry

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/obs"
)

// Budget caps the total number of retries (attempts beyond an
// operation's first) spent across a whole run, so a badly degraded
// network cannot multiply scan cost without bound. A run carries it in
// its context (WithBudget), so two runs never drain each other's. A nil
// *Budget means unlimited. Safe for concurrent use.
type Budget struct{ left atomic.Int64 }

// NewBudget returns a budget allowing n retries in total.
func NewBudget(n int64) *Budget {
	b := &Budget{}
	b.left.Store(n)
	return b
}

// Take consumes one retry from the budget, reporting false when the
// budget is exhausted. A nil budget always allows.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	return b.left.Add(-1) >= 0
}

// Remaining returns the retries left (0 on an exhausted or nil budget).
func (b *Budget) Remaining() int64 {
	if b == nil {
		return 0
	}
	if n := b.left.Load(); n > 0 {
		return n
	}
	return 0
}

type budgetKey struct{}

// WithBudget derives a context whose Policy.Do calls draw their retries
// from b.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// Stats accumulates attempt accounting for every Policy.Do call that
// runs under one context — the scanner attaches one per domain so a
// DomainResult can record how hard its verdict was to obtain. All
// methods are safe on a nil receiver and for concurrent use.
type Stats struct {
	attempts  atomic.Int64
	retries   atomic.Int64
	recovered atomic.Int64
	gaveUp    atomic.Int64
}

// Attempts is the total number of operation attempts, including firsts.
func (s *Stats) Attempts() int64 {
	if s == nil {
		return 0
	}
	return s.attempts.Load()
}

// Retries is the number of attempts beyond each operation's first.
func (s *Stats) Retries() int64 {
	if s == nil {
		return 0
	}
	return s.retries.Load()
}

// Recovered counts operations that succeeded after at least one retry —
// verdicts that would have been misclassified without retrying.
func (s *Stats) Recovered() int64 {
	if s == nil {
		return 0
	}
	return s.recovered.Load()
}

// GaveUp counts operations that exhausted their attempts (or budget) on
// transient errors.
func (s *Stats) GaveUp() int64 {
	if s == nil {
		return 0
	}
	return s.gaveUp.Load()
}

type statsKey struct{}

// WithStats derives a context carrying a fresh Stats that every
// Policy.Do under it will feed.
func WithStats(ctx context.Context) (context.Context, *Stats) {
	s := &Stats{}
	return context.WithValue(ctx, statsKey{}, s), s
}

// StatsFrom returns the Stats carried by ctx, or nil.
func StatsFrom(ctx context.Context) *Stats {
	s, _ := ctx.Value(statsKey{}).(*Stats)
	return s
}

// Policy configures one layer's retry behavior. The zero value performs
// a single attempt (no retries) while still feeding context Stats, so
// adopters can wrap operations unconditionally.
type Policy struct {
	// Name prefixes the obs counters: <Name>.retries, <Name>.gave_up,
	// <Name>.retry.recovered, <Name>.retry.attempts.
	Name string
	// MaxAttempts bounds total attempts per operation; <= 1 disables
	// retrying.
	MaxAttempts int
	// BaseDelay is the first backoff (doubled per retry). Zero means
	// 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 2s.
	MaxDelay time.Duration
	// Jitter spreads each backoff uniformly over ±(Jitter/2)·delay.
	// Zero means 0.5; negative disables jitter.
	Jitter float64
	// Transient classifies an error as retryable. Nil means
	// errtax.Transient — the taxonomy-wide classifier, which is what
	// every pipeline layer uses; override only in tests.
	Transient func(error) bool
	// Obs, when non-nil, receives the retry counters.
	Obs *obs.Registry
}

// Do runs op with the policy's retry loop: transient errors are retried
// with exponential backoff and jitter until the attempt limit or the
// context's budget (WithBudget) is hit, the context is done, or the
// error is persistent. Backoff waits on the context's clock
// (clock.From). It returns the last error. Attempts are recorded
// against the context's Stats (WithStats) and the policy's obs counters.
func (p Policy) Do(ctx context.Context, op func(context.Context) error) error {
	maxAttempts := p.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	classify := p.Transient
	if classify == nil {
		classify = errtax.Transient
	}
	stats := StatsFrom(ctx)
	var err error
	for attempt := 1; ; attempt++ {
		err = op(ctx)
		if stats != nil {
			stats.attempts.Add(1)
		}
		p.Obs.Counter(p.Name + ".retry.attempts").Inc()
		if err == nil {
			if attempt > 1 {
				if stats != nil {
					stats.recovered.Add(1)
				}
				p.Obs.Counter(p.Name + ".retry.recovered").Inc()
			}
			return nil
		}
		if !classify(err) || ctx.Err() != nil {
			return err
		}
		if budget, _ := ctx.Value(budgetKey{}).(*Budget); attempt >= maxAttempts || !budget.Take() {
			// Transient and out of attempts: the caller's verdict may
			// not reflect the endpoint's steady state.
			if maxAttempts > 1 {
				if stats != nil {
					stats.gaveUp.Add(1)
				}
				p.Obs.Counter(p.Name + ".gave_up").Inc()
			}
			return err
		}
		if serr := clock.From(ctx).Sleep(ctx, p.backoff(attempt)); serr != nil {
			return err
		}
		if stats != nil {
			stats.retries.Add(1)
		}
		p.Obs.Counter(p.Name + ".retries").Inc()
	}
}

// backoff computes the delay before attempt+1: BaseDelay doubled per
// completed attempt, capped at MaxDelay, spread by the jitter fraction.
func (p Policy) backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxD := p.MaxDelay
	if maxD <= 0 {
		maxD = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxD; i++ {
		d *= 2
	}
	if d > maxD {
		d = maxD
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.5
	}
	if jitter > 0 {
		// Uniform in [1-j/2, 1+j/2]; rand's global source is
		// goroutine-safe and jitter never affects scan outcomes.
		f := 1 + jitter*(rand.Float64()-0.5)
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
