// Fixture for the lockhold analyzer (loaded under an internal/ import
// path, where the convention applies).
package fixlockhold

import (
	"context"
	"net/http"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
)

type cache struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	jobs chan int
	wg   sync.WaitGroup
	m    map[string]string
}

func (c *cache) sendUnderLock() {
	c.mu.Lock()
	c.jobs <- 1 // want "channel send while holding c.mu"
	c.mu.Unlock()
}

func (c *cache) recvUnderDeferredLock() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-c.jobs // want "channel receive while holding c.mu"
}

func (c *cache) sleepUnderRLock() {
	c.rw.RLock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding c.rw (RLock)"
	c.rw.RUnlock()
}

func (c *cache) backoffUnderLock(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return clock.From(ctx).Sleep(ctx, time.Millisecond) // want "(clock.Clock).Sleep (clock wait) while holding c.mu"
}

// refillLocked hides a clock wait behind a same-package helper.
func (c *cache) refillLocked(ctx context.Context) error {
	return clock.System{}.Sleep(ctx, time.Millisecond)
}

func (c *cache) takeUnderLock(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refillLocked(ctx) // want "which reaches (clock.System).Sleep (clock wait) while holding c.mu"
}

func (c *cache) fetchUnderLock(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := http.Get(url) // want "(network I/O) while holding c.mu"
	if err == nil {
		c.m[url] = resp.Status
	}
}

func (c *cache) waitUnderLock() {
	c.mu.Lock()
	c.wg.Wait() // want "Wait while holding c.mu"
	c.mu.Unlock()
}

func (c *cache) selectUnderLock(done chan struct{}) {
	c.mu.Lock()
	select { // want "blocking select while holding c.mu"
	case <-done:
	case c.jobs <- 1:
	}
	c.mu.Unlock()
}

func (c *cache) drainUnderLock() {
	c.mu.Lock()
	for range c.jobs { // want "range over a channel while holding c.mu"
	}
	c.mu.Unlock()
}

// persistLocked hides the blocking operation behind a same-package
// helper; the analyzer follows it transitively.
func (c *cache) persistLocked() {
	time.Sleep(time.Millisecond)
}

func (c *cache) store(k, v string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
	c.persistLocked() // want "which reaches time.Sleep while holding c.mu"
}

// release blocks only after the critical section: fine.
func (c *cache) release() {
	c.mu.Lock()
	v := c.m["k"]
	c.mu.Unlock()
	c.jobs <- 1
	_ = v
}

// deferredWork defines a literal under the lock but runs it after;
// literals are independent scopes and must not be flagged here.
func (c *cache) deferredWork() {
	c.mu.Lock()
	fn := func() { c.jobs <- 1 }
	c.mu.Unlock()
	fn()
}

// warm documents a sanctioned exception via the suppression comment.
func (c *cache) warm() {
	c.mu.Lock()
	//lint:ignore lockhold warm-up runs before any concurrent reader exists
	time.Sleep(time.Millisecond)
	c.mu.Unlock()
}
