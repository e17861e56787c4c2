//go:build !race

package scanner

import (
	"context"
	"testing"
)

// TestRunnerAllocBudget keeps what Run itself allocates per domain from
// regressing silently: one result slot and one small job per domain,
// allocated once per run, with no DomainResult copied through the
// stages or sorted afterwards. The no-op scanner's results are empty,
// so the figure is the Runner's own. Not built under -race, like the
// other allocation budgets.
func TestRunnerAllocBudget(t *testing.T) {
	const n = 1000
	domains := benchDomains(n)
	r := &Runner{Workers: 4, Scan: nopScanner{}}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := r.Run(context.Background(), domains); len(got) != n {
				b.Fatalf("Run returned %d results, want %d", len(got), n)
			}
		}
	})
	if res.N == 0 { // b.Fatal inside testing.Benchmark yields a zero result, which would pass
		t.Fatal("benchmark did not complete")
	}
	perDomain := res.AllocedBytesPerOp() / n
	t.Logf("Run: %d B and %.1f allocations per domain over %d runs", perDomain, float64(res.AllocsPerOp())/n, res.N)
	if perDomain >= runBudget {
		t.Errorf("Run allocates %d B per domain, budget < %d B", perDomain, runBudget)
	}
}

// runBudget is the bytes Run may allocate per domain: ~635 B on amd64
// with go1.24 (the result slot, the job, and the retry context), and
// ~1 126 B when each job carried its own DomainResult that was then
// copied into the results and sorted.
const runBudget = 800
