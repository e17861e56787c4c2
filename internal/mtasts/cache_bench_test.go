package mtasts

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/store"
)

// benchCacheOut, when set, makes TestBenchCacheJSON measure warm-path
// delivery throughput on both store backends plus the cold-stampede
// scenario and write the results to the given JSON file (the repo's
// BENCH_cache.json). `make bench` wires it.
var benchCacheOut = flag.String("benchcache-out", "", "write policy-cache delivery timings to this JSON file")

const benchDomainCount = 10000

func benchFill(b testing.TB, c *PolicyCache, n int) []string {
	b.Helper()
	domains := make([]string, n)
	for i := range domains {
		domains[i] = fmt.Sprintf("d%05d.example", i)
		c.Store(domains[i], mxPolicy("mx.d.example", 86400), "id1")
	}
	return domains
}

func benchStore(b testing.TB, backend string) store.Store {
	b.Helper()
	switch backend {
	case "mem":
		return store.NewMem()
	case "disk":
		st, err := store.OpenDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Fatalf("unknown backend %q", backend)
	return nil
}

// BenchmarkPolicyCacheDeliveries measures the warm delivery path — the
// per-message cache decision a production sender makes millions of times
// — over both store backends. Warm-path reads never touch the backend
// (the store is only written through), so mem and disk should be close;
// that closeness is the point of the benchmark.
func BenchmarkPolicyCacheDeliveries(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			st := benchStore(b, backend)
			c, err := OpenPolicyCache(st, CacheOptions{Max: benchDomainCount})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := c.Close(); err != nil {
					b.Error(err)
				}
			}()
			domains := benchFill(b, c, benchDomainCount)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					d := domains[i%len(domains)]
					i++
					if _, ok := c.Get(d); !ok {
						b.Error("warm-path miss")
						return
					}
				}
			})
		})
	}
}

// benchWarm times totalOps warm Gets across workers goroutines.
func benchWarm(b testing.TB, c *PolicyCache, domains []string, workers, totalOps int) time.Duration {
	b.Helper()
	var wg sync.WaitGroup
	per := totalOps / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d := domains[(w*per+i)%len(domains)]
				if _, ok := c.Get(d); !ok {
					b.Error("warm-path miss")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// TestBenchCacheJSON emits BENCH_cache.json: warm deliveries/sec per
// backend, plus the stampede scenario (concurrent cold deliveries per
// domain must collapse to exactly one fetch each). Skipped unless
// -benchcache-out is set; run via make bench.
func TestBenchCacheJSON(t *testing.T) {
	if *benchCacheOut == "" {
		t.Skip("run via make bench (-benchcache-out not set)")
	}
	type row struct {
		Backend      string  `json:"backend"`
		Domains      int     `json:"domains"`
		Workers      int     `json:"workers"`
		Ops          int     `json:"ops"`
		Seconds      float64 `json:"seconds"`
		DeliveriesPS float64 `json:"deliveries_per_second"`
	}
	out := struct {
		Workload string `json:"workload"`
		Rows     []row  `json:"rows"`
		Stampede struct {
			ColdDomains      int   `json:"cold_domains"`
			CallersPerDomain int   `json:"callers_per_domain"`
			Fetches          int64 `json:"fetches"`
			Collapsed        int64 `json:"collapsed"`
		} `json:"stampede"`
	}{Workload: fmt.Sprintf("%d cached domains, warm Get per delivery", benchDomainCount)}

	// One worker whatever the machine has: benchguard matches rows on
	// (backend, domains, workers), and the committed baseline is workers=1.
	const workers, totalOps = 1, 2_000_000
	for _, backend := range []string{"mem", "disk"} {
		st := benchStore(t, backend)
		c, err := OpenPolicyCache(st, CacheOptions{Max: benchDomainCount})
		if err != nil {
			t.Fatal(err)
		}
		domains := benchFill(t, c, benchDomainCount)
		elapsed := benchWarm(t, c, domains, workers, totalOps)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		out.Rows = append(out.Rows, row{
			Backend: backend, Domains: benchDomainCount, Workers: workers,
			Ops: totalOps, Seconds: elapsed.Seconds(),
			DeliveriesPS: float64(totalOps) / elapsed.Seconds(),
		})
	}

	// Stampede: for each cold domain, callers concurrent fetches must
	// collapse to one execution.
	const coldDomains, callers = 64, 32
	c, err := OpenPolicyCache(store.NewMem(), CacheOptions{Max: coldDomains})
	if err != nil {
		t.Fatal(err)
	}
	var fetches atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < coldDomains; d++ {
		domain := fmt.Sprintf("cold%03d.example", d)
		gate := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				_, _, err := c.CoalesceFetch(domain, func() (Policy, error) {
					fetches.Add(1)
					time.Sleep(25 * time.Millisecond) // a "network" fetch
					return mxPolicy("mx.cold.example", 3600), nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		close(gate)
	}
	wg.Wait()
	out.Stampede.ColdDomains = coldDomains
	out.Stampede.CallersPerDomain = callers
	out.Stampede.Fetches = fetches.Load()
	out.Stampede.Collapsed = c.Stats().Collapsed
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Stampede.Fetches != coldDomains {
		t.Errorf("stampede: %d fetches for %d cold domains — singleflight leak", out.Stampede.Fetches, coldDomains)
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchCacheOut, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchCacheOut)
}
