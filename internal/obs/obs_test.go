package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 64, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test.concurrent")
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test.concurrent").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(5)
	c.Add(-3) // ignored
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
	// Same name returns the same gauge.
	if r.Gauge("g").Value() != 6 {
		t.Error("gauge identity lost across lookups")
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.GaugeFunc("computed", func() int64 { return n })
	n = 42
	snap := r.Snapshot()
	if snap.Gauges["computed"] != 42 {
		t.Errorf("computed gauge = %d, want 42", snap.Gauges["computed"])
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	// Buckets: <=0.01 gets 0.005 and 0.01 (upper bound inclusive);
	// <=0.1 gets 0.05; <=1 gets 0.5; overflow gets 2 and 100.
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if wantSum := 0.005 + 0.01 + 0.05 + 0.5 + 2 + 100; math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if m := s.Mean(); math.Abs(m-s.Sum/6) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(i%10) / 100)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != 32*500 {
		t.Errorf("count = %d, want %d", got, 32*500)
	}
	s := h.Snapshot()
	total := int64(0)
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{0.1, 0.2, 0.3, 0.4, 0.5})
	// 100 observations uniform over buckets 1..5.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%5)/10 + 0.05)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 0.2 || q > 0.35 {
		t.Errorf("p50 = %v, want ~0.25", q)
	}
	if q := s.Quantile(0.99); q < 0.4 || q > 0.5 {
		t.Errorf("p99 = %v, want in (0.4, 0.5]", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestNilRegistryNoop(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	// None of these may panic, and all handles must be nil-safe.
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if r.Counter("c").Value() != 0 {
		t.Error("nil counter has a value")
	}
	r.Gauge("g").Set(3)
	r.Gauge("g").Dec()
	r.GaugeFunc("f", func() int64 { return 1 })
	r.Histogram("h", nil).Observe(1)
	r.Histogram("h", nil).ObserveSince(time.Time{})
	r.Progress("p").SetTotal(10)
	r.Progress("p").Start()
	r.Progress("p").Done()
	if d := r.StartSpan("s").EndErr(errors.New("x")); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	if StartSpan(context.Background(), "s").End() != 0 {
		t.Error("context span without registry should be a no-op")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Progress) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
	var sink *EventSink
	sink.Emit("e", map[string]any{"k": "v"}) // must not panic
	if sink.Dropped() != 0 {
		t.Error("nil sink dropped != 0")
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("policy.fetch")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Errorf("duration = %v", d)
	}
	r.StartSpan("policy.fetch").EndErr(errors.New("boom"))
	snap := r.Snapshot()
	if snap.Counters["policy.fetch.total"] != 2 {
		t.Errorf("total = %d, want 2", snap.Counters["policy.fetch.total"])
	}
	if snap.Counters["policy.fetch.errors"] != 1 {
		t.Errorf("errors = %d, want 1", snap.Counters["policy.fetch.errors"])
	}
	if h := snap.Histograms["policy.fetch.seconds"]; h.Count != 2 || h.Sum <= 0 {
		t.Errorf("histogram = %+v", h)
	}
}

// TestSpanAllocBudget: once a span name is warm, a Start/End pair costs
// the Span itself and nothing else. Ending a span used to build
// "<name>.seconds" and "<name>.total" and look both up under the
// registry lock, two allocations more.
func TestSpanAllocBudget(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	StartSpan(ctx, "warm.stage").End()
	if got := testing.AllocsPerRun(100, func() { StartSpan(ctx, "warm.stage").End() }); got > 1 {
		t.Errorf("a warm Start/End pair makes %.0f allocations, budget 1", got)
	}
	if got := r.Snapshot().Counters["warm.stage.total"]; got != 102 {
		t.Errorf("warm.stage.total = %d, want 102", got)
	}
}

func TestSpanFromContext(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	if FromContext(ctx) != r {
		t.Fatal("registry not carried by context")
	}
	StartSpan(ctx, "ctx.stage").End()
	if r.Snapshot().Counters["ctx.stage.total"] != 1 {
		t.Error("context span did not record")
	}
}

func TestProgress(t *testing.T) {
	r := NewRegistry()
	p := r.Progress("scan")
	p.SetTotal(10)
	for i := 0; i < 4; i++ {
		p.Start()
		p.Done()
	}
	s := p.Snapshot()
	if s.Total != 10 || s.Done != 4 || s.InFlight != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.ElapsedSeconds < 0 || s.RatePerSecond < 0 {
		t.Errorf("negative elapsed/rate: %+v", s)
	}
}

func TestEventSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(&buf)
	s.now = func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }
	s.Emit("scan.domain", map[string]any{"domain": "a.com", "ok": true})
	s.Emit("scan.domain", map[string]any{"domain": "b.com", "ok": false})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if obj["event"] != "scan.domain" || obj["domain"] != "a.com" || obj["ts"] == "" {
		t.Errorf("event = %+v", obj)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestEventSinkLatchesOnError(t *testing.T) {
	s := NewEventSink(failWriter{})
	s.Emit("a", nil)
	s.Emit("b", nil)
	if got := s.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	if NewEventSink(nil) != nil {
		t.Error("NewEventSink(nil) should return nil")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("scan.domains.total").Add(7)
	r.Gauge("scanner.stage.dns.busy").Set(3)
	r.Histogram("scan.domain.seconds", nil).Observe(0.02)
	r.Progress("scan").SetTotal(100)
	r.Progress("scan").Add(7)

	srv := httptest.NewServer(r.NewServeMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["scan.domains.total"] != 7 {
		t.Errorf("counter = %d", snap.Counters["scan.domains.total"])
	}
	if snap.Histograms["scan.domain.seconds"].Count != 1 {
		t.Errorf("histogram = %+v", snap.Histograms["scan.domain.seconds"])
	}

	resp2, err := http.Get(srv.URL + "/debug/scanprogress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var prog map[string]ProgressSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog["scan"].Total != 100 || prog["scan"].Done != 7 {
		t.Errorf("progress = %+v", prog["scan"])
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	s, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
