package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// Span is one call across a layer boundary, recorded by the bench's own
// wrappers (instrument A). Times are nanoseconds since the tracer's
// epoch. Job and Parent are filled in after the repetition, when every
// job's window is known: Parent is the ID of the job's root span.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    string `json:"job,omitempty"`
	Domain string `json:"domain,omitempty"`
	// Key is what the call was about when that is not the domain: the MX
	// host of a probe, the key or prefix of a store call.
	Key string `json:"key,omitempty"`
	// N counts the records a store call carried or visited, or the
	// result lines an HTTP call streamed.
	N      int `json:"n,omitempty"`
	Parent int `json:"parent"`
}

// Dur is the span's length.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names. Stage spans are scanner.<stage>, store spans
// store.<method>, HTTP spans http.<call>; "job" is the root span of one
// job, from the first byte of its submission to the last byte of its
// results.
const (
	spanJob      = "job"
	spanDiscover = "scanner.discover"
	spanFetch    = "scanner.fetch"
	spanProbe    = "scanner.probe"
	spanFinalize = "scanner.finalize"
	spanSubmit   = "http.submit"
	spanPoll     = "http.poll"
	spanResults  = "http.results"
	spanIngest   = "http.tlsrpt"
)

// tracer is the bench's in-memory span store. It deliberately shares
// nothing with the product's internal/obs registry: the benchmark
// measures the program from outside.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span; attribute numbers and parents them once
// the repetition is over.
func (t *tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record is add for the common start-to-now case.
func (t *tracer) record(name string, start time.Time, domain, key string, n int) {
	t.add(Span{Name: name, Start: t.since(start), End: t.since(time.Now()), Domain: domain, Key: key, N: n})
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err = enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, f.Close())
}

// tracedScanner wraps the service's scanner at the StageScanner seam,
// one span per stage call. The pipelined runner hands FetchPolicy and
// ProbeHost the very context it handed Discover for the same domain,
// which is how a probe span (whose call names only the MX host) learns
// its domain. The map lives as long as the wrapper, one repetition.
type tracedScanner struct {
	inner scanner.StageScanner
	t     *tracer
	byCtx sync.Map // context.Context → domain
}

func (s *tracedScanner) ScanDomain(ctx context.Context, domain string) scanner.DomainResult {
	return s.inner.ScanDomain(ctx, domain)
}

func (s *tracedScanner) Discover(ctx context.Context, domain string) (scanner.DomainResult, bool) {
	s.byCtx.Store(ctx, domain)
	start := time.Now()
	r, done := s.inner.Discover(ctx, domain)
	s.t.record(spanDiscover, start, domain, "", 0)
	return r, done
}

func (s *tracedScanner) FetchPolicy(ctx context.Context, domain string) scanner.FetchOutcome {
	start := time.Now()
	out := s.inner.FetchPolicy(ctx, domain)
	s.t.record(spanFetch, start, domain, domain, 0)
	return out
}

func (s *tracedScanner) ProbeHost(ctx context.Context, mxHost string) scanner.ProbeOutcome {
	domain, _ := s.byCtx.Load(ctx)
	start := time.Now()
	out := s.inner.ProbeHost(ctx, mxHost)
	d, _ := domain.(string)
	s.t.record(spanProbe, start, d, mxHost, 0)
	return out
}

func (s *tracedScanner) Finalize(r *scanner.DomainResult, took time.Duration) {
	start := time.Now()
	s.inner.Finalize(r, took)
	s.t.record(spanFinalize, start, r.Domain, "", 0)
}

// tracedStore wraps the service's store at the store.Store seam.
type tracedStore struct {
	inner *store.Disk
	t     *tracer
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := s.inner.Get(key)
	s.t.record("store.get", start, "", key, 1)
	return v, ok, err
}

func (s *tracedStore) Put(key string, value []byte) error {
	start := time.Now()
	err := s.inner.Put(key, value)
	s.t.record("store.put", start, "", key, 1)
	return err
}

func (s *tracedStore) Batch(entries []store.Entry) error {
	key := ""
	if len(entries) > 0 {
		key = entries[0].Key
	}
	start := time.Now()
	err := s.inner.Batch(entries)
	s.t.record("store.batch", start, "", key, len(entries))
	return err
}

func (s *tracedStore) Scan(prefix string, fn func(key string, value []byte) error) error {
	n := 0
	start := time.Now()
	err := s.inner.Scan(prefix, func(k string, v []byte) error {
		n++
		return fn(k, v)
	})
	s.t.record("store.scan", start, "", prefix, n)
	return err
}

func (s *tracedStore) Sync() error {
	start := time.Now()
	err := s.inner.Sync()
	s.t.record("store.sync", start, "", "", 0)
	return err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

// SizeBytes keeps the wrapper a store.Sizer, so the campaign engine
// takes the same path with tracing on as off.
func (s *tracedStore) SizeBytes() int64 { return s.inner.SizeBytes() }
