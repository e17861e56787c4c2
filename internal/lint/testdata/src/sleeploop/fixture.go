// Fixture for the sleeploop analyzer (loaded under an internal/ import
// path, where the convention applies).
package fixsleep

import (
	"context"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
)

func inLoop() {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond) // want "raw time.Sleep in a loop"
	}
}

func overRange(xs []int) {
	for range xs {
		time.Sleep(time.Millisecond) // want "raw time.Sleep in a loop"
	}
}

func withCtx(ctx context.Context) {
	time.Sleep(time.Millisecond) // want "ignores the function's context.Context"
}

func closureInLoop() {
	for i := 0; i < 2; i++ {
		wait := func() {
			time.Sleep(time.Millisecond) // want "raw time.Sleep in a loop"
		}
		wait()
	}
}

func plain() {
	time.Sleep(time.Millisecond) // no loop, no context in scope: allowed
}

func clockInLoop(ctx context.Context) {
	for i := 0; i < 3; i++ {
		clock.From(ctx).Sleep(ctx, time.Millisecond) // want "(clock.Clock).Sleep in a loop"
	}
}

func clockOnce(ctx context.Context) error {
	return clock.From(ctx).Sleep(ctx, time.Millisecond) // honours ctx, no loop: allowed
}
