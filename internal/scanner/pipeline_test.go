package scanner

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
)

// pipelineArtifacts builds n domains drawing 2 MX hosts each from a
// shared pool of poolSize hosts, cycling through every failure mode the
// classifier distinguishes so a scheduler bug that drops or duplicates
// a stage shows up as a classification diff, not just a count diff.
func pipelineArtifacts(n, poolSize int) []Artifacts {
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("mx%02d.shared.example", i)
	}
	arts := make([]Artifacts, 0, n)
	for i := 0; i < n; i++ {
		domain := fmt.Sprintf("p%04d.example", i)
		mx1, mx2 := pool[(2*i)%poolSize], pool[(2*i+1)%poolSize]
		a := Artifacts{
			Domain:             domain,
			TXT:                []string{"v=STSv1; id=20240929;"},
			MXHosts:            []string{mx1, mx2},
			PolicyHostResolves: true,
			TCPOpen:            true,
			PolicyCert:         pki.GoodProfile(scanNow, mtasts.PolicyHost(domain)),
			HTTPStatus:         200,
			PolicyBody: []byte("version: STSv1\nmode: enforce\nmx: " + mx1 +
				"\nmx: " + mx2 + "\nmax_age: 86400\n"),
			MXSTARTTLS: map[string]bool{mx1: true, mx2: true},
			MXCerts: map[string]pki.CertProfile{
				mx1: pki.GoodProfile(scanNow, mx1),
				mx2: pki.GoodProfile(scanNow, mx2),
			},
		}
		switch i % 8 {
		case 1:
			a.TXT = []string{"v=spf1 -all"} // no record: Discover short-circuits
		case 2:
			a.TXT = []string{"v=STSv1;"} // invalid record, fetch still runs
		case 3:
			a.PolicyHostResolves = false // StageDNS
		case 4:
			a.HTTPStatus = 404 // StageHTTP
		case 5:
			a.PolicyBody = []byte("version: STSv2\n") // StageSyntax
		case 6:
			a.PolicyBody = []byte("version: STSv1\nmode: enforce\nmx: elsewhere.example\nmax_age: 86400\n") // mismatch
		case 7:
			a.MXSTARTTLS[mx2] = false // footnote-4 host
		}
		arts = append(arts, a)
	}
	return arts
}

func domainsOf(arts []Artifacts) []string {
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = a.Domain
	}
	return out
}

// sequential is the reference the Runner is compared against: ScanDomain
// called on one domain after another.
func sequential(scan Scanner, domains []string) []DomainResult {
	results := make([]DomainResult, 0, len(domains))
	for _, d := range domains {
		results = append(results, scan.ScanDomain(context.Background(), d))
	}
	return results
}

func classificationsByDomain(t *testing.T, results []DomainResult) map[string]string {
	t.Helper()
	m := make(map[string]string, len(results))
	for i := range results {
		r := &results[i]
		if _, dup := m[r.Domain]; dup {
			t.Fatalf("domain %s appears twice in results", r.Domain)
		}
		m[r.Domain] = r.ClassificationKey()
	}
	return m
}

// TestPipelinedMatchesSequentialOnArtifacts is the scheduler's
// unit-level equivalence check against the sequential ScanDomain loop
// over every artifact failure mode (the full-dataset version lives in
// pipeline_equivalence_test.go).
func TestPipelinedMatchesSequentialOnArtifacts(t *testing.T) {
	arts := pipelineArtifacts(64, 6)
	domains := domainsOf(arts)
	scan := NewArtifactScanner(arts, scanNow, 0)
	want := classificationsByDomain(t, sequential(scan, domains))

	runner := &Runner{
		Workers:      3,
		Scan:         scan,
		StageWorkers: StageWorkers{DNS: 4, Fetch: 2, Probe: 6},
	}
	results := runner.Run(context.Background(), domains)
	if len(results) != len(domains) {
		t.Fatalf("%d results for %d domains", len(results), len(domains))
	}
	got := classificationsByDomain(t, results)
	for _, d := range domains {
		if got[d] != want[d] {
			t.Errorf("%s classification diverged:\n  sequential: %s\n  runner:     %s", d, want[d], got[d])
		}
	}
}

// countingScanner counts ProbeHost calls per MX host.
type countingScanner struct {
	*ArtifactScanner
	mu     sync.Mutex
	probes map[string]int
}

func (s *countingScanner) ProbeHost(ctx context.Context, mxHost string) ProbeOutcome {
	s.mu.Lock()
	s.probes[mxHost]++
	s.mu.Unlock()
	return s.ArtifactScanner.ProbeHost(ctx, mxHost)
}

// TestPipelineSharedProbesExact is the -race stress test with an
// analytically known sharing outcome: 40 record-bearing domains, each
// listing 2 MX hosts from an 8-host pool, give exactly 8 probes out of
// 80 probe calls — scanner.dedup.misses = 8, scanner.dedup.hits = 72 —
// with ProbeHost run once per host in each Run and again in the next
// Run, no lost or duplicated DomainResult, and classifications equal to
// the sequential ScanDomain loop's.
func TestPipelineSharedProbesExact(t *testing.T) {
	const nDomains, poolSize = 40, 8
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("mx%02d.stress.example", i)
	}
	arts := make([]Artifacts, 0, nDomains)
	for i := 0; i < nDomains; i++ {
		domain := fmt.Sprintf("s%03d.example", i)
		mx1, mx2 := pool[(2*i)%poolSize], pool[(2*i+1)%poolSize]
		arts = append(arts, Artifacts{
			Domain:             domain,
			TXT:                []string{"v=STSv1; id=20240929;"},
			MXHosts:            []string{mx1, mx2},
			PolicyHostResolves: true,
			TCPOpen:            true,
			PolicyCert:         pki.GoodProfile(scanNow, mtasts.PolicyHost(domain)),
			HTTPStatus:         200,
			PolicyBody: []byte("version: STSv1\nmode: enforce\nmx: " + mx1 +
				"\nmx: " + mx2 + "\nmax_age: 86400\n"),
			MXSTARTTLS: map[string]bool{mx1: true, mx2: true},
			MXCerts: map[string]pki.CertProfile{
				mx1: pki.GoodProfile(scanNow, mx1),
				mx2: pki.GoodProfile(scanNow, mx2),
			},
		})
	}
	domains := domainsOf(arts)
	scan := &countingScanner{
		ArtifactScanner: NewArtifactScanner(arts, scanNow, 10*time.Microsecond),
		probes:          make(map[string]int),
	}
	want := classificationsByDomain(t, sequential(scan.ArtifactScanner, domains))

	runner := &Runner{
		Workers:      4,
		Scan:         scan,
		StageWorkers: StageWorkers{DNS: 4, Fetch: 4, Probe: 4},
	}
	for run := 1; run <= 2; run++ {
		reg := obs.NewRegistry()
		runner.Obs = reg
		results := runner.Run(context.Background(), domains)
		if len(results) != nDomains {
			t.Fatalf("run %d: %d results for %d domains", run, len(results), nDomains)
		}
		got := classificationsByDomain(t, results) // also fails on duplicates
		for _, d := range domains {
			if got[d] != want[d] {
				t.Errorf("run %d: %s diverged:\n  sequential: %s\n  runner:     %s", run, d, want[d], got[d])
			}
		}
		if len(scan.probes) != poolSize {
			t.Errorf("run %d: ProbeHost saw %d hosts, want %d", run, len(scan.probes), poolSize)
		}
		for mx, calls := range scan.probes {
			if calls != run {
				t.Errorf("after run %d: ProbeHost(%s) ran %d times, want %d", run, mx, calls, run)
			}
		}

		snap := reg.Snapshot()
		const wantMisses = poolSize            // one probe per pool host
		const wantHits = 2*nDomains - poolSize // 80 probe calls - 8 probes
		if c := snap.Counters["scanner.dedup.misses"]; c != wantMisses {
			t.Errorf("run %d: scanner.dedup.misses = %d, want %d", run, c, wantMisses)
		}
		if c := snap.Counters["scanner.dedup.hits"]; c != wantHits {
			t.Errorf("run %d: scanner.dedup.hits = %d, want %d", run, c, wantHits)
		}
		if c := snap.Counters["scanner.scans.total"]; c != nDomains {
			t.Errorf("run %d: scanner.scans.total = %d, want %d", run, c, nDomains)
		}

		// The stage pools must have drained and every record-bearing
		// domain passed through every stage exactly once.
		assertStagesDrained(t, reg)
		for _, stage := range []string{"dns", "fetch", "probe"} {
			if v := snap.Gauges["scanner.stage."+stage+".workers"]; v != 4 {
				t.Errorf("run %d: stage %s workers gauge = %d, want 4", run, stage, v)
			}
			if h := snap.Histograms["scanner.stage."+stage+".latency.seconds"]; h.Count != nDomains {
				t.Errorf("run %d: stage %s latency count = %d, want %d", run, stage, h.Count, nDomains)
			}
		}
		prog := reg.Progress("scan").Snapshot()
		if prog.Total != nDomains || prog.Done != nDomains || prog.InFlight != 0 {
			t.Errorf("run %d: progress did not reconcile: %+v", run, prog)
		}
	}
}

// TestPipelinedCancellationReconciles pins the run-level contract for a
// StageScanner: a canceled run still returns one result per domain,
// with the unscanned tail as Canceled placeholders, and the stage
// gauges drained (runner_cancel_test.go has the plain-Scanner case).
func TestPipelinedCancellationReconciles(t *testing.T) {
	arts := pipelineArtifacts(200, 4)
	domains := domainsOf(arts)
	// Slow stages so cancellation lands mid-run.
	scan := NewArtifactScanner(arts, scanNow, 200*time.Microsecond)

	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	runner := &Runner{Workers: 2, Scan: scan, Obs: reg}
	results := runner.Run(ctx, domains)

	if len(results) != len(domains) {
		t.Fatalf("%d results for %d domains", len(results), len(domains))
	}
	seen := make(map[string]bool, len(results))
	canceled := 0
	for i := range results {
		r := &results[i]
		if seen[r.Domain] {
			t.Fatalf("domain %s duplicated", r.Domain)
		}
		seen[r.Domain] = true
		if r.Canceled {
			canceled++
		}
	}
	snap := reg.Snapshot()
	if c := snap.Counters["scanner.domains.canceled"]; c != int64(canceled) {
		t.Errorf("canceled counter %d != %d canceled results", c, canceled)
	}
	if c := snap.Counters["scanner.scans.total"]; c != int64(len(domains)-canceled) {
		t.Errorf("scans.total %d != %d completed results", c, len(domains)-canceled)
	}
	assertStagesDrained(t, reg)
	prog := reg.Progress("scan").Snapshot()
	if prog.Total != int64(len(domains)) || prog.Done != int64(len(domains)) || prog.InFlight != 0 {
		t.Errorf("progress did not reconcile: %+v", prog)
	}
}

func TestParseStageWorkers(t *testing.T) {
	cases := []struct {
		spec    string
		want    StageWorkers
		wantErr bool
	}{
		{spec: "", want: StageWorkers{}},
		{spec: "auto", want: StageWorkers{}},
		{spec: "dns=8,fetch=4,probe=16", want: StageWorkers{DNS: 8, Fetch: 4, Probe: 16}},
		{spec: "probe=32", want: StageWorkers{Probe: 32}},
		{spec: " DNS=2 , Fetch=3 ", want: StageWorkers{DNS: 2, Fetch: 3}},
		{spec: "dns=0", wantErr: true},
		{spec: "dns=-1", wantErr: true},
		{spec: "dns=x", wantErr: true},
		{spec: "smtp=4", wantErr: true},
		{spec: "dns", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseStageWorkers(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseStageWorkers(%q): expected error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStageWorkers(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseStageWorkers(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	if got := (StageWorkers{Probe: 9}).withDefaults(4); got != (StageWorkers{DNS: 4, Fetch: 4, Probe: 9}) {
		t.Errorf("withDefaults = %+v", got)
	}
	if got := (StageWorkers{}).withDefaults(0); got != (StageWorkers{DNS: 1, Fetch: 1, Probe: 1}) {
		t.Errorf("withDefaults(0) = %+v", got)
	}
}
