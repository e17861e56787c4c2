package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is a valid no-op sink: every accessor
// returns a nil handle whose methods do nothing, so instrumented code
// never needs to branch.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
	progress   map[string]*Progress
	spans      map[string]*spanMetrics
	start      time.Time
}

// NewRegistry returns an empty registry anchored at the current time.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
		progress:   make(map[string]*Progress),
		spans:      make(map[string]*spanMetrics),
		start:      time.Now(),
	}
}

// Enabled reports whether the registry records anything. Hot paths use it
// to skip clock reads when observability is off.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the idiom for exposing state owned elsewhere (cache sizes,
// pool depths) without mirroring writes. Re-registering a name replaces
// the previous function. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (seconds) on first use. Buckets are only
// consulted at creation; later calls with different buckets return the
// existing histogram. Nil or empty buckets mean DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(buckets)
	r.hists[name] = h
	return h
}

// Progress returns the progress tracker registered under name, creating
// it on first use.
func (r *Registry) Progress(name string) *Progress {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	p, ok := r.progress[name]
	r.mu.RUnlock()
	if ok {
		return p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok = r.progress[name]; ok {
		return p
	}
	p = &Progress{}
	r.progress[name] = p
	return p
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. All methods are safe on a nil
// receiver.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
