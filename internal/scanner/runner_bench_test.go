package scanner

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
)

// benchScanOut, when set, makes TestBenchScanJSON time the Runner on the
// synthetic workload and write the rows to the given JSON file (the
// repo's BENCH_scan.json). `make bench` wires it.
var benchScanOut = flag.String("benchscan-out", "", "write scan timings to this JSON file")

// nopScanner isolates Runner overhead from probe cost.
type nopScanner struct{}

func (nopScanner) ScanDomain(_ context.Context, d string) DomainResult {
	return DomainResult{Domain: d}
}

func benchDomains(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("d%04d.com", i)
	}
	return out
}

// BenchmarkRunnerNilObs is the regression guard for the nil-registry
// contract: instrumentation with Obs == nil must cost only pointer
// checks, so Runner throughput stays at its pre-observability level.
// Together with BenchmarkRunnerWithObs it measures the scheduler alone
// (a no-op Scanner run whole in the DNS pool); BenchmarkRunnerPipelined
// below uses a workload with realistic per-stage costs.
func BenchmarkRunnerNilObs(b *testing.B) {
	domains := benchDomains(256)
	r := &Runner{Workers: 8, Scan: nopScanner{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(context.Background(), domains)
	}
}

// BenchmarkRunnerWithObs measures the enabled-path cost for comparison.
func BenchmarkRunnerWithObs(b *testing.B) {
	domains := benchDomains(256)
	r := &Runner{Workers: 8, Scan: nopScanner{}, Obs: obs.NewRegistry()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(context.Background(), domains)
	}
}

// benchArtifacts builds n fully healthy domains, each listing two MX
// hosts drawn from a shared pool of hostPool providers — the hosting
// concentration that makes probe sharing pay off on real populations.
func benchArtifacts(n, hostPool int) []Artifacts {
	pool := make([]string, hostPool)
	for i := range pool {
		pool[i] = fmt.Sprintf("mx%03d.bench.example", i)
	}
	arts := make([]Artifacts, n)
	for i := range arts {
		domain := fmt.Sprintf("b%05d.example", i)
		mx1, mx2 := pool[(2*i)%hostPool], pool[(2*i+1)%hostPool]
		arts[i] = Artifacts{
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
	}
	return arts
}

// benchOpDelay is the synthetic per-unit network cost for the scheduler
// benchmarks (ArtifactScanner charges 3 units for DNS discovery, 2 for
// the policy fetch, and 5 per MX probe).
const benchOpDelay = 50 * time.Microsecond

var benchSizes = []int{1000, 10000}

// benchRunner is the one configuration both BenchmarkRunnerPipelined
// and the BENCH_scan.json writer use, so they can never drift apart: 64
// workers in total.
func benchRunner(scan *ArtifactScanner) *Runner {
	return &Runner{
		Scan:         scan,
		StageWorkers: StageWorkers{DNS: 32, Fetch: 24, Probe: 8},
	}
}

// BenchmarkRunnerPipelined times the Runner on the synthetic population:
// stages overlap and duplicate MX probes collapse across domains.
func BenchmarkRunnerPipelined(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("domains=%d", n), func(b *testing.B) {
			arts := benchArtifacts(n, 50)
			domains := make([]string, n)
			for i := range arts {
				domains[i] = arts[i].Domain
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				scan := NewArtifactScanner(arts, scanNow, benchOpDelay)
				r := benchRunner(scan)
				b.StartTimer()
				if res := r.Run(context.Background(), domains); len(res) != n {
					b.Fatalf("%d results for %d domains", len(res), n)
				}
			}
		})
	}
}

// TestBenchScanJSON times one run at every bench size and writes the
// rows to -benchscan-out; it is skipped otherwise. cmd/benchguard holds
// each row's throughput to the committed baseline (make bench-check).
func TestBenchScanJSON(t *testing.T) {
	if *benchScanOut == "" {
		t.Skip("run via make bench (-benchscan-out not set)")
	}
	type row struct {
		Backend   string  `json:"backend"`
		Domains   int     `json:"domains"`
		Seconds   float64 `json:"seconds"`
		DomainsPS float64 `json:"domains_per_second"`
	}
	out := struct {
		Workload string `json:"workload"`
		OpDelay  string `json:"op_delay"`
		Rows     []row  `json:"rows"`
	}{
		Workload: "healthy domains, 2 MX each from a 50-host pool, 64 total workers",
		OpDelay:  benchOpDelay.String(),
	}
	for _, n := range benchSizes {
		arts := benchArtifacts(n, 50)
		domains := make([]string, n)
		for i := range arts {
			domains[i] = arts[i].Domain
		}
		r := benchRunner(NewArtifactScanner(arts, scanNow, benchOpDelay))
		start := time.Now()
		if res := r.Run(context.Background(), domains); len(res) != n {
			t.Fatalf("%d results for %d domains", len(res), n)
		}
		secs := time.Since(start).Seconds()
		// "pipelined" is the row identity benchguard matches on, kept
		// so the rows stay comparable with earlier baselines.
		out.Rows = append(out.Rows, row{
			Backend: "pipelined", Domains: n, Seconds: secs,
			DomainsPS: float64(n) / secs,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchScanOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchScanOut)
}
