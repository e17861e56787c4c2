package scanner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/obs"
)

// slowScanner blocks each scan until release is closed, then returns a
// minimal result; it counts how many scans actually ran.
type slowScanner struct {
	release chan struct{}
	ran     atomic.Int64
}

func (s *slowScanner) ScanDomain(ctx context.Context, domain string) DomainResult {
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	s.ran.Add(1)
	return DomainResult{Domain: domain}
}

// assertStagesDrained checks that every stage pool ended the run with
// an empty inbound queue and no worker mid-job.
func assertStagesDrained(t *testing.T, reg *obs.Registry) {
	t.Helper()
	for _, stage := range []string{"dns", "fetch", "probe"} {
		for _, gauge := range []string{".queue.depth", ".busy"} {
			name := "scanner.stage." + stage + gauge
			if v := reg.Gauge(name).Value(); v != 0 {
				t.Errorf("%s = %d after run, want 0", name, v)
			}
		}
	}
}

// Regression: canceling a run mid-flight used to drop domains already
// pulled from the queue (no DomainResult at all), abandon the unsent
// tail, and leave the queue-depth gauge nonzero. Every submitted domain
// must come back — scanned or Canceled — with the gauges drained.
// slowScanner is not a StageScanner, so this is also the adapter case:
// a plain Scanner run whole inside the DNS pool reconciles the same way.
func TestRunnerCancelAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	scan := &slowScanner{release: make(chan struct{})}
	r := &Runner{Workers: 4, Scan: scan, Obs: reg}

	domains := make([]string, 64)
	for i := range domains {
		domains[i] = "d" + string(rune('a'+i/26)) + string(rune('a'+i%26)) + ".example"
	}

	ctx, cancel := context.WithCancel(context.Background())
	resCh := make(chan []DomainResult, 1)
	go func() { resCh <- r.Run(ctx, domains) }()

	// Let the pool pick up work, then cancel while scans are blocked.
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(scan.release)

	var results []DomainResult
	select {
	case results = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	if len(results) != len(domains) {
		t.Fatalf("got %d results for %d domains", len(results), len(domains))
	}
	seen := make(map[string]bool, len(results))
	canceled := 0
	for _, res := range results {
		if seen[res.Domain] {
			t.Errorf("domain %s reported twice", res.Domain)
		}
		seen[res.Domain] = true
		if res.Canceled {
			canceled++
		}
	}
	for _, d := range domains {
		if !seen[d] {
			t.Errorf("domain %s unaccounted for", d)
		}
	}
	assertStagesDrained(t, reg)
	snap := reg.Progress("scan").Snapshot()
	if snap.Done != int64(len(domains)) || snap.InFlight != 0 {
		t.Errorf("progress done=%d inFlight=%d, want done=%d inFlight=0",
			snap.Done, snap.InFlight, len(domains))
	}
	if got := reg.Counter("scanner.domains.canceled").Value(); got != int64(canceled) {
		t.Errorf("scanner.domains.canceled = %d, results marked canceled = %d", got, canceled)
	}
	if ran := scan.ran.Load(); ran != int64(len(domains)-canceled) {
		t.Errorf("%d scans ran, want %d (every domain not marked canceled)", ran, len(domains)-canceled)
	}
	if got := reg.Counter("scanner.scans.total").Value(); got != int64(len(domains)-canceled) {
		t.Errorf("scanner.scans.total = %d, want %d", got, len(domains)-canceled)
	}

	s := Summarize(results)
	if s.Total != len(domains) || s.Canceled != canceled {
		t.Errorf("Summary total=%d canceled=%d, want %d/%d", s.Total, s.Canceled, len(domains), canceled)
	}
}

// An uncanceled run must be unaffected by the accounting path.
func TestRunnerUncanceledHasNoCanceledResults(t *testing.T) {
	reg := obs.NewRegistry()
	scan := &slowScanner{release: make(chan struct{})}
	close(scan.release)
	r := &Runner{Workers: 3, Scan: scan, Obs: reg}
	results := r.Run(context.Background(), []string{"a.example", "b.example", "c.example"})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, res := range results {
		if res.Canceled {
			t.Errorf("%s marked canceled on a clean run", res.Domain)
		}
	}
	if got := reg.Counter("scanner.domains.canceled").Value(); got != 0 {
		t.Errorf("scanner.domains.canceled = %d on a clean run", got)
	}
}
