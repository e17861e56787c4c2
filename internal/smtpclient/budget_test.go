//go:build !race

package smtpclient

import (
	"context"
	"testing"
)

// TestProbeAllocBudget keeps the ledger's smtpclient.probe_kb row from
// regressing silently: a session's reader and writer come from a pool
// and are reset onto the TLS channel, not allocated twice per probe.
// The figure includes the in-process server's share. Not built under
// -race, where sync.Pool deliberately drops a quarter of what is Put.
func TestProbeAllocBudget(t *testing.T) {
	p, host := startProbeTarget(t)
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := p.Probe(ctx, host); !res.TLSEstablished {
				b.Fatalf("probe: %+v", res)
			}
		}
	})
	if res.N == 0 { // b.Fatal inside testing.Benchmark yields a zero result, which would pass
		t.Fatal("benchmark did not complete")
	}
	t.Logf("probe: %d B/op, %d allocs/op over %d probes", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got >= probeBudget {
		t.Errorf("a probe allocates %d B, budget < %d B", got, probeBudget)
	}
}

// probeBudget is the bytes one probe may allocate, server included: a
// probe measured ~95.6 KB on amd64 with go1.24, and ~112.3 KB when each
// session allocated four fresh 4 KiB buffers.
const probeBudget = 104 << 10
