package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2024, 9, 29, 12, 0, 0, 0, time.UTC)

func TestFromDefaultsToSystem(t *testing.T) {
	if _, ok := From(context.Background()).(System); !ok {
		t.Fatalf("From(Background) = %T, want System", From(context.Background()))
	}
	f := NewFake(t0)
	ctx := With(context.Background(), f)
	if got := From(ctx); got != Clock(f) {
		t.Fatalf("From(With(f)) = %v, want the fake", got)
	}
	// A derived context still carries the clock.
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	if !From(child).Now().Equal(t0) {
		t.Errorf("derived context reads %v, want %v", From(child).Now(), t0)
	}
}

func TestFakeSetAdvanceSleep(t *testing.T) {
	f := NewFake(t0)
	f.Advance(time.Hour)
	if got := f.Now(); !got.Equal(t0.Add(time.Hour)) {
		t.Errorf("after Advance: %v", got)
	}
	if err := f.Sleep(context.Background(), 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := f.Now(); !got.Equal(t0.Add(90 * time.Minute)) {
		t.Errorf("after Sleep: %v, want the clock advanced by the wait", got)
	}
	f.Set(t0)
	if !f.Now().Equal(t0) {
		t.Errorf("after Set: %v", f.Now())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep on a done context = %v, want context.Canceled", err)
	}
	if !f.Now().Equal(t0) {
		t.Errorf("a refused Sleep moved the clock to %v", f.Now())
	}
}

// A cancellation that arrives mid-wait ends System.Sleep at once.
func TestSystemSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	if err := (System{}).Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("cancelled Sleep took %v", waited)
	}
	if err := (System{}).Sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("short Sleep = %v", err)
	}
}

// The clock lookup sits on every DNS query and probe; it must not
// allocate, with or without a clock on the context.
func TestFromDoesNotAllocate(t *testing.T) {
	plain := context.Background()
	faked := With(plain, NewFake(t0))
	if n := testing.AllocsPerRun(100, func() { sinkTime = From(plain).Now() }); n != 0 {
		t.Errorf("From(no clock).Now allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkTime = From(faked).Now() }); n != 0 {
		t.Errorf("From(fake).Now allocates %v times", n)
	}
}

var sinkTime time.Time
