//go:build !race

package scanner

import (
	"context"
	"fmt"
	"testing"

	"github.com/netsecurelab/mtasts/internal/pki"
)

// perDomain benchmarks run over n domains and returns its allocations
// and bytes per domain.
func perDomain(t *testing.T, n int, run func() int) (allocs float64, bytes int64) {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := run(); got != n {
				b.Fatalf("run returned %d results, want %d", got, n)
			}
		}
	})
	if res.N == 0 { // b.Fatal inside testing.Benchmark yields a zero result, which would pass
		t.Fatal("benchmark did not complete")
	}
	return float64(res.AllocsPerOp()) / float64(n), res.AllocedBytesPerOp() / int64(n)
}

// TestRunnerAllocBudget keeps what Run itself allocates per domain from
// regressing silently. Not built under -race, like the other allocation
// budgets.
//
// The no-op scanner's results are empty, so that row is the Runner's
// own: one result slot and one small job per domain, allocated once per
// run, with no DomainResult copied through the stages or sorted
// afterwards.
//
// The probing row runs an ArtifactScanner population in which every
// domain lists two MX hosts no other domain lists, so every probe is a
// miss of the Run's probe memo. What Run allocates beyond the same
// domains scanned one after another by ScanDomain, less the Runner's
// own per-domain cost, is the memo's: one allocation per distinct host,
// its entry, plus the map's amortized growth (~0.015 per key here). The
// singleflight fetch and probe memos it replaced spent seven allocations
// and ~820 B more per domain on this population.
func TestRunnerAllocBudget(t *testing.T) {
	const n = 1000
	domains := benchDomains(n)
	r := &Runner{Workers: 4, Scan: nopScanner{}}
	ownAllocs, ownBytes := perDomain(t, n, func() int { return len(r.Run(context.Background(), domains)) })
	t.Logf("Run: %d B and %.2f allocations per domain", ownBytes, ownAllocs)
	if ownBytes >= runBudget {
		t.Errorf("Run allocates %d B per domain, budget < %d B", ownBytes, runBudget)
	}

	arts := make([]Artifacts, n)
	for i := range arts {
		domain := fmt.Sprintf("u%04d.example", i)
		mx1, mx2 := "mx1."+domain, "mx2."+domain
		arts[i] = Artifacts{
			Domain:  domain,
			TXT:     []string{"v=STSv1; id=1;"},
			MXHosts: []string{mx1, mx2},
			// The policy host does not resolve, so the fetch stage is
			// cheap and the probes dominate.
			MXSTARTTLS: map[string]bool{mx1: true, mx2: true},
			MXCerts: map[string]pki.CertProfile{
				mx1: pki.GoodProfile(scanNow, mx1),
				mx2: pki.GoodProfile(scanNow, mx2),
			},
		}
	}
	scan := NewArtifactScanner(arts, scanNow, 0)
	domains = domainsOf(arts)
	seqAllocs, seqBytes := perDomain(t, n, func() int { return len(sequential(scan, domains)) })
	r = &Runner{Workers: 4, Scan: scan}
	runAllocs, runBytes := perDomain(t, n, func() int { return len(r.Run(context.Background(), domains)) })
	memoAllocs := runAllocs - seqAllocs - ownAllocs
	t.Logf("probing: Run %.2f allocations and %d B per domain, sequential %.2f and %d B; memo %.2f allocations per host",
		runAllocs, runBytes, seqAllocs, seqBytes, memoAllocs/2)
	if memoAllocs/2 > memoBudget {
		t.Errorf("the probe memo allocates %.2f times per distinct host, budget ≤ %.2f", memoAllocs/2, memoBudget)
	}
}

// runBudget is the bytes Run may allocate per domain: ~635 B on amd64
// with go1.24 (the result slot, the job, and the retry context), and
// ~1 126 B when each job carried its own DomainResult that was then
// copied into the results and sorted.
const runBudget = 800

// memoBudget is the allocations the probe memo may make per distinct
// host: its entry and a little map growth.
const memoBudget = 1.05
