//go:build !race

package mtasts_test

import (
	"context"
	"testing"
)

// TestFetchAllocBudget keeps the ledger's mtasts.fetch_cold_kb row from
// regressing silently: the request writer and the response reader come
// from pools instead of being allocated per fetch. The figure includes
// the in-process server's share. Not built under -race, where sync.Pool
// deliberately drops a quarter of what is Put.
func TestFetchAllocBudget(t *testing.T) {
	f := startPolicyHosts(t, "budget.test")
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := f.Fetch(ctx, "budget.test"); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 { // b.Fatal inside testing.Benchmark yields a zero result, which would pass
		t.Fatal("benchmark did not complete")
	}
	t.Logf("fetch: %d B/op, %d allocs/op over %d fetches", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got >= fetchBudget {
		t.Errorf("a fetch allocates %d B, budget < %d B", got, fetchBudget)
	}
}

// fetchBudget is the bytes one fetch may allocate, server included: a
// fetch measured ~84.4 KB on amd64 with go1.24, and ~92.9 KB when each
// fetch allocated a 4 KiB writer and a 4 KiB reader.
const fetchBudget = 88 << 10
