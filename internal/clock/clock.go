// Package clock is the one answer to "what time is it" for every verdict
// that depends on the instant: certificate validity, DNSSEC signature
// windows, policy max_age, DNS TTLs, token-bucket refills and retry
// backoff. A clock rides the context (With, From), so one run — a scan
// week, a test at a fixed date — judges everything at the same instant,
// and a run that sets none reads the wall clock (System).
//
// Measurement (latency histograms, spans, campaign seconds) and socket
// deadlines, which the kernel judges by wall time, keep time.Now.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock tells the time and waits.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep waits for d, or until ctx is done, whichever comes first; it
	// returns ctx.Err() in the second case.
	Sleep(ctx context.Context, d time.Duration) error
}

// System is the wall clock. It is zero-size, so storing it in a Clock
// does not allocate.
type System struct{}

// Now returns time.Now().
func (System) Now() time.Time { return time.Now() }

// Sleep waits on a timer, ending early with ctx.Err() on cancellation.
func (System) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Fake is a settable clock for tests. Its Sleep advances it at once, so
// waits take no wall time. Safe for concurrent use.
type Fake struct {
	mu sync.Mutex
	t  time.Time
}

// NewFake returns a fake clock reading t.
func NewFake(t time.Time) *Fake { return &Fake{t: t} }

// Now returns the fake instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Set moves the clock to t, forward or back.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = t
}

// Advance moves the clock forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// Sleep advances the clock by d and returns at once; a done ctx returns
// its error and leaves the clock where it was.
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.Advance(d)
	return nil
}

type key struct{}

// With derives a context whose verdicts read c.
func With(ctx context.Context, c Clock) context.Context {
	return context.WithValue(ctx, key{}, c)
}

// From returns the clock ctx carries, or System when it carries none.
func From(ctx context.Context) Clock {
	if c, ok := ctx.Value(key{}).(Clock); ok {
		return c
	}
	return System{}
}
