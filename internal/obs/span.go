package obs

import (
	"context"
	"time"
)

// ctxKey carries a *Registry through a context.
type ctxKey struct{}

// WithRegistry returns a context carrying r, for code that times stages
// via the package-level StartSpan without threading a registry through
// every signature.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the registry carried by ctx, or nil.
func FromContext(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}

// Span is a stage timer. Ending a span named "policy.fetch" records one
// observation in the "policy.fetch.seconds" histogram, increments
// "policy.fetch.total", and — when the outcome is an error —
// "policy.fetch.errors". A nil *Span (from a nil registry) is a no-op
// and performs no clock reads.
type Span struct {
	r     *Registry
	m     *spanMetrics
	start time.Time
}

// spanMetrics are the two metrics every span of one name records into.
// The registry resolves them once per name, so a span builds no metric
// name and takes no registry lock once its name is warm; only an error
// builds "<name>.errors".
type spanMetrics struct {
	name    string
	seconds *Histogram
	total   *Counter
}

// StartSpan begins timing a stage against the registry carried by ctx.
// Returns nil (a no-op span) when ctx carries no registry.
func StartSpan(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartSpan(name)
}

// StartSpan begins timing a stage against r. Returns nil on a nil
// registry. The first span of a name registers its ".seconds" and
// ".total" metrics, so they appear, at zero, as soon as it starts.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, m: r.spanMetrics(name), start: time.Now()}
}

// spanMetrics returns name's span metrics, registering them on first use.
func (r *Registry) spanMetrics(name string) *spanMetrics {
	r.mu.RLock()
	m, ok := r.spans[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	// Built outside the lock, which Histogram and Counter take; a racing
	// first use builds the same two handles and either copy may win.
	m = &spanMetrics{name: name, seconds: r.Histogram(name+".seconds", nil), total: r.Counter(name + ".total")}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.spans[name]; ok {
		return prev
	}
	r.spans[name] = m
	return m
}

// End records the span with a success outcome and returns its duration.
func (s *Span) End() time.Duration { return s.EndErr(nil) }

// EndErr records the span, counting err (when non-nil) against
// "<name>.errors". It returns the measured duration (0 on a nil span).
func (s *Span) EndErr(err error) time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.m.seconds.ObserveDuration(d)
	s.m.total.Inc()
	if err != nil {
		s.r.Counter(s.m.name + ".errors").Inc()
	}
	return d
}
