package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/obs"
)

var errTransient = fmt.Errorf("blip: %w", syscall.ECONNRESET)

// noSleep puts a fake clock on ctx, so backoff waits advance it instead
// of taking wall time.
func noSleep(ctx context.Context) context.Context {
	return clock.With(ctx, clock.NewFake(time.Date(2024, 9, 29, 12, 0, 0, 0, time.UTC)))
}

func TestDoRecoversAfterTransientFailures(t *testing.T) {
	reg := obs.NewRegistry()
	p := Policy{Name: "x", MaxAttempts: 4, Obs: reg}
	ctx, stats := WithStats(noSleep(context.Background()))
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls < 3 {
			return errTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if stats.Attempts() != 3 || stats.Retries() != 2 || stats.Recovered() != 1 || stats.GaveUp() != 0 {
		t.Errorf("stats = %d/%d/%d/%d", stats.Attempts(), stats.Retries(), stats.Recovered(), stats.GaveUp())
	}
	if reg.Counter("x.retries").Value() != 2 || reg.Counter("x.retry.recovered").Value() != 1 {
		t.Errorf("counters: retries=%d recovered=%d",
			reg.Counter("x.retries").Value(), reg.Counter("x.retry.recovered").Value())
	}
}

func TestDoGivesUpAfterMaxAttempts(t *testing.T) {
	reg := obs.NewRegistry()
	p := Policy{Name: "x", MaxAttempts: 3, Obs: reg}
	ctx, stats := WithStats(noSleep(context.Background()))
	calls := 0
	err := p.Do(ctx, func(context.Context) error { calls++; return errTransient })
	if !errors.Is(err, syscall.ECONNRESET) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if stats.GaveUp() != 1 {
		t.Errorf("gaveUp = %d", stats.GaveUp())
	}
	if reg.Counter("x.gave_up").Value() != 1 {
		t.Errorf("x.gave_up = %d", reg.Counter("x.gave_up").Value())
	}
}

func TestDoDoesNotRetryPersistentErrors(t *testing.T) {
	p := Policy{MaxAttempts: 5, Transient: func(error) bool { return false }}
	calls := 0
	wantErr := errors.New("persistent")
	err := p.Do(noSleep(context.Background()), func(context.Context) error { calls++; return wantErr })
	if err != wantErr || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestDoZeroValueSingleAttempt(t *testing.T) {
	var p Policy
	ctx, stats := WithStats(context.Background())
	calls := 0
	if err := p.Do(ctx, func(context.Context) error { calls++; return errTransient }); err == nil {
		t.Fatal("want error")
	}
	if calls != 1 || stats.Attempts() != 1 || stats.GaveUp() != 0 {
		t.Errorf("calls=%d attempts=%d gaveUp=%d", calls, stats.Attempts(), stats.GaveUp())
	}
}

func TestDoStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(noSleep(context.Background()))
	p := Policy{MaxAttempts: 10}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return errTransient
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestBudgetSharedAcrossPolicies(t *testing.T) {
	b := NewBudget(3)
	ctx := WithBudget(noSleep(context.Background()), b)
	p, q := Policy{MaxAttempts: 10}, Policy{Name: "other", MaxAttempts: 10}
	calls := 0
	// One op burns the whole budget: 1 first attempt + 3 retried.
	p.Do(ctx, func(context.Context) error { calls++; return errTransient })
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (1 + 3 budgeted retries)", calls)
	}
	// The next op under the same context gets no retries at all, from
	// either policy.
	calls = 0
	q.Do(ctx, func(context.Context) error { calls++; return errTransient })
	if calls != 1 {
		t.Errorf("calls = %d after budget exhausted, want 1", calls)
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining = %d", b.Remaining())
	}
	// A context carrying its own budget, or none, is unaffected.
	for other, want := range map[context.Context]int{
		WithBudget(context.Background(), NewBudget(3)): 4,
		context.Background():                           10,
	} {
		calls = 0
		p.Do(noSleep(other), func(context.Context) error { calls++; return errTransient })
		if calls != want {
			t.Errorf("calls = %d under another run's context, want %d", calls, want)
		}
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 50, 50}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 200; i++ {
		d := p.backoff(1)
		if d < 75*time.Millisecond || d > 125*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [75ms, 125ms]", d)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// The nil-classifier default is errtax.Transient: socket-level failures
// retry, typed persistent verdicts and cancellation do not — and the
// typed transient bit survives Do's error passthrough, so errors.Is/As
// still resolve codes on what Do returns.
func TestDefaultClassifierIsErrtax(t *testing.T) {
	transient := []error{
		timeoutErr{},
		fmt.Errorf("recv: %w", io.EOF),
		io.ErrUnexpectedEOF,
		syscall.ECONNRESET,
		syscall.ECONNREFUSED,
		&net.OpError{Op: "read", Err: errors.New("weird")},
		context.DeadlineExceeded,
		errtax.New(errtax.LayerDNS, errtax.CodeServFail, true, "typed transient"),
	}
	for _, err := range transient {
		if !errtax.Transient(err) {
			t.Errorf("errtax.Transient(%v) = false", err)
		}
	}
	persistent := []error{
		nil,
		context.Canceled,
		errors.New("policy syntax error"),
		errtax.New(errtax.LayerDNS, errtax.CodeNXDomain, false, "typed persistent"),
	}
	for _, err := range persistent {
		if errtax.Transient(err) {
			t.Errorf("errtax.Transient(%v) = true", err)
		}
	}

	// A Policy with a nil Transient func must retry exactly the errors
	// errtax.Transient says to: a typed persistent error stops after one
	// attempt, a typed transient error consumes every attempt.
	typedPersistent := errtax.New(errtax.LayerDNS, errtax.CodeNXDomain, false, "nope")
	calls := 0
	err := Policy{MaxAttempts: 3}.Do(noSleep(context.Background()), func(context.Context) error {
		calls++
		return fmt.Errorf("lookup: %w", typedPersistent)
	})
	if calls != 1 {
		t.Errorf("persistent typed error retried: %d attempts", calls)
	}
	if !errors.Is(err, typedPersistent) {
		t.Errorf("errors.Is lost the sentinel through Do: %v", err)
	}
	if c, ok := errtax.CodeOf(err); !ok || c != errtax.CodeNXDomain {
		t.Errorf("CodeOf(Do err) = %q, %v; want nxdomain", c, ok)
	}

	typedTransient := errtax.New(errtax.LayerDNS, errtax.CodeServFail, true, "blip")
	calls = 0
	err = Policy{MaxAttempts: 3}.Do(noSleep(context.Background()), func(context.Context) error {
		calls++
		return typedTransient
	})
	if calls != 3 {
		t.Errorf("transient typed error: %d attempts, want 3", calls)
	}
	var te *errtax.Error
	if !errors.As(err, &te) || te.Code != errtax.CodeServFail {
		t.Errorf("errors.As lost the typed error through Do: %v", err)
	}
}

func TestNilBudgetAndNilStats(t *testing.T) {
	var b *Budget
	if !b.Take() {
		t.Error("nil budget should allow retries")
	}
	var s *Stats
	if s.Attempts() != 0 || s.Retries() != 0 || s.Recovered() != 0 || s.GaveUp() != 0 {
		t.Error("nil stats should read zero")
	}
	if StatsFrom(context.Background()) != nil {
		t.Error("StatsFrom on bare context should be nil")
	}
}
