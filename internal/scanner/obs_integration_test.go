package scanner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/resolver"
)

// syncBuffer is a goroutine-safe bytes.Buffer for collecting events from
// concurrent workers (EventSink serializes writes, but the test also
// reads while emitting in the sampler below).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunnerEmitsMetricsOverSubstrate drives a Runner over the simnet-style
// loopback substrate with observability enabled and asserts that the
// per-stage counters are nonzero, progress completes and is monotonic,
// and the event stream is parseable JSONL.
func TestRunnerEmitsMetricsOverSubstrate(t *testing.T) {
	// One provisioned domain scanned repeatedly, plus a domain with no
	// MTA-STS record.
	n, live := liveNet(t)
	serve(t, n, liveArtifacts("good.com", "mx.good.com"))

	reg := obs.NewRegistry()
	var buf syncBuffer
	sink := obs.NewEventSink(&buf)
	live.Obs = reg
	live.Events = sink
	live.DNS.Obs = reg
	live.Fetcher.Obs = reg
	live.Prober.Obs = reg

	runner := &Runner{Workers: 3, Scan: live, Obs: reg, Events: sink}
	domains := []string{"good.com", "good.com", "good.com", "absent.com"}

	// Sample progress concurrently and assert it never decreases.
	stop := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	var monotonic = true
	go func() {
		defer sampleWG.Done()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			done := reg.Progress("scan").Completed()
			if done < last {
				monotonic = false
			}
			last = done
			time.Sleep(200 * time.Microsecond)
		}
	}()

	results := runner.Run(context.Background(), domains)
	close(stop)
	sampleWG.Wait()

	if len(results) != len(domains) {
		t.Fatalf("results = %d, want %d", len(results), len(domains))
	}
	if !monotonic {
		t.Error("progress went backwards during the run")
	}

	snap := reg.Snapshot()
	wantNonzeroCounters := []string{
		"scan.domains.total",
		"scanner.scans.total",
		"scan.record.present",
		"scan.policy.ok",
		"scan.mx.cert.ok",
		"mtasts.fetch.ok",
		"smtp.probe.total",
		"smtp.probe.tls_established",
		"resolver.queries.total",
	}
	for _, name := range wantNonzeroCounters {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q = 0, want nonzero (counters: %v)", name, snap.Counters)
		}
	}
	wantHists := []string{
		"scanner.domain_scan.seconds",
		"scanner.stage.dns.latency.seconds",
		"scanner.stage.fetch.latency.seconds",
		"scanner.stage.probe.latency.seconds",
		"scan.mx_lookup.seconds",
		"scan.policy_fetch.seconds",
		"mtasts.fetch.dns.seconds",
		"mtasts.fetch.tls_handshake.seconds",
		"smtp.probe.dial.seconds",
		"smtp.probe.tls_handshake.seconds",
		"resolver.query.seconds",
	}
	for _, name := range wantHists {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("histogram %q empty", name)
		}
	}
	// The resolver cache gauges are computed at snapshot time.
	if snap.Gauges["resolver.cache.hits"]+snap.Gauges["resolver.cache.misses"] == 0 {
		t.Errorf("resolver cache gauges all zero: %v", snap.Gauges)
	}

	prog := reg.Progress("scan").Snapshot()
	if prog.Total != int64(len(domains)) || prog.Done != int64(len(domains)) || prog.InFlight != 0 {
		t.Errorf("progress = %+v", prog)
	}
	if prog.RatePerSecond <= 0 {
		t.Errorf("rate = %v, want > 0", prog.RatePerSecond)
	}

	// Event stream: one scan.domain event per domain, plus run brackets,
	// all parseable JSONL.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var domainEvents, runStart, runEnd int
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("unparseable event line %q: %v", line, err)
		}
		switch obj["event"] {
		case "scan.domain":
			domainEvents++
			if obj["domain"] == "" || obj["ts"] == "" {
				t.Errorf("incomplete event: %v", obj)
			}
		case "scan.run.start":
			runStart++
		case "scan.run.end":
			runEnd++
		}
	}
	if domainEvents != len(domains) || runStart != 1 || runEnd != 1 {
		t.Errorf("events: domain=%d start=%d end=%d", domainEvents, runStart, runEnd)
	}
	if sink.Dropped() != 0 {
		t.Errorf("dropped events: %d", sink.Dropped())
	}
}

// TestLiveScanMXLookupError pins the bugfix for silently swallowed MX
// lookup failures: a SERVFAIL on the MX query must surface on
// DomainResult.MXLookupErr and in the scan.mx_lookup.errors counter,
// while NXDOMAIN ("no MX records") must not.
func TestLiveScanMXLookupError(t *testing.T) {
	n, live := liveNet(t)
	serve(t, n, liveArtifacts("broken.com", "mx.broken.com"))
	reg := obs.NewRegistry()
	live.Obs = reg
	n.DNS.SetBehavior(dnsserver.BehaviorServFail)

	r := live.ScanDomain(context.Background(), "broken.com")
	if r.MXLookupErr == nil {
		t.Fatal("SERVFAIL MX lookup not recorded on MXLookupErr")
	}
	if !errors.Is(r.MXLookupErr, resolver.ErrServFail) {
		t.Errorf("MXLookupErr = %v, want ErrServFail", r.MXLookupErr)
	}
	if got := reg.Snapshot().Counters["scan.mx_lookup.errors"]; got != 1 {
		t.Errorf("scan.mx_lookup.errors = %d, want 1", got)
	}

	// A domain that simply has no MX records is not a lookup error.
	n.DNS.SetBehavior(dnsserver.BehaviorNormal)
	n.AddDomain(loopnet.Domain{Name: "nomx.com", TXT: []string{"v=STSv1; id=20240929;"}})
	r2 := live.ScanDomain(context.Background(), "nomx.com")
	if r2.MXLookupErr != nil {
		t.Errorf("NXDOMAIN MX lookup treated as error: %v", r2.MXLookupErr)
	}
	if got := reg.Snapshot().Counters["scan.mx_lookup.errors"]; got != 1 {
		t.Errorf("scan.mx_lookup.errors = %d after NXDOMAIN, want still 1", got)
	}
}

// TestLiveScanNilObsUnchanged pins the nil-registry contract: scanning
// with observability disabled produces identical results and no panics.
func TestLiveScanNilObsUnchanged(t *testing.T) {
	n, live := liveNet(t)
	serve(t, n, liveArtifacts("plain.com", "mx.plain.com"))
	// Obs and Events are nil by default.
	r := live.ScanDomain(context.Background(), "plain.com")
	if !r.RecordValid || !r.PolicyOK || r.Misconfigured() {
		t.Errorf("r = %+v", r)
	}
}
