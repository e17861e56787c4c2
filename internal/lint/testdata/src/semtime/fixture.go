// Fixture for the semtime analyzer (loaded under an internal/ import
// path; it imports internal/clock, which puts it in scope).
package fixsemtime

import (
	"context"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
)

type limiter struct{ now func() time.Time }

func newLimiter() *limiter { return &limiter{now: time.Now} } // want "time.Now in a package whose verdicts read internal/clock"

// verdict reads the context clock; Time.After is a comparison, not a
// timer.
func verdict(ctx context.Context, expires time.Time) bool {
	return clock.From(ctx).Now().After(expires)
}

func wallVerdict(expires time.Time) bool {
	return time.Now().After(expires) // want "time.Now in a package"
}

func wait(ctx context.Context) {
	t := time.NewTimer(time.Second) // want "time.NewTimer"
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func backoff() { time.Sleep(time.Millisecond) } // want "time.Sleep"

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since"
}

func timeout() <-chan time.Time { return time.After(time.Second) } // want "time.After"

func measured() time.Time {
	//lint:ignore semtime measurement: the start of a latency histogram
	return time.Now()
}

func window() time.Duration { return 2 * time.Second } // a duration is not a clock read
