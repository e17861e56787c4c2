//go:build !race

package resolver

import (
	"context"
	"testing"
)

// TestUncachedLookupAllocBudget keeps the ledger's resolver.lookup_uncached
// rows from regressing silently: one uncached lookup costs what its small
// reply costs (it was ~68 KB while every query made its own 64 KiB
// datagram buffer). The figures include the in-process server's share,
// ~1.5 KB and a dozen allocations. Not built under -race, where sync.Pool
// deliberately drops a quarter of what is Put.
func TestUncachedLookupAllocBudget(t *testing.T) {
	_, c := startServer(t)
	c.Cache = nil
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 { // b.Fatal inside testing.Benchmark yields a zero result, which would pass
		t.Fatal("benchmark did not complete")
	}
	t.Logf("uncached LookupTXT: %d B/op, %d allocs/op over %d lookups", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got >= 8<<10 {
		t.Errorf("uncached lookup allocates %d B, budget < 8 KiB", got)
	}
	if got := res.AllocsPerOp(); got > 45 {
		t.Errorf("uncached lookup makes %d allocations, budget ≤ 45", got)
	}
}
