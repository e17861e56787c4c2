package mtasts_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/policysrv"
)

// startPolicyHosts starts a loopnet world serving the policy of each
// named domain, each with an mx pattern of its own, and returns a
// Fetcher aimed at it. Every policy host resolves to the world's policy
// server without a DNS round trip, so a fetch is TCP + TLS + HTTP +
// parse.
func startPolicyHosts(tb testing.TB, domains ...string) *mtasts.Fetcher {
	tb.Helper()
	n, err := loopnet.Start(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	for _, d := range domains {
		n.AddDomain(loopnet.Domain{Name: d, Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400,
			MXPatterns: []string{"mx." + d},
		}}})
	}
	return &mtasts.Fetcher{
		Resolver: mtasts.AddrResolverFunc(func(context.Context, string) ([]string, error) {
			return []string{"127.0.0.1"}, nil
		}),
		RootCAs: n.CA.Pool(),
		Port:    n.Policy.Port(),
		Timeout: 5 * time.Second,
	}
}

// TestConcurrentFetchesShareNoBuffer: fetches running at once each read
// through their own buffers. Every domain's policy names its own mx, so
// a fetch that read another connection's bytes returns the wrong policy
// or fails; under -race a shared buffer is also a reported race.
func TestConcurrentFetchesShareNoBuffer(t *testing.T) {
	const domains, rounds = 4, 6
	var names []string
	for i := 0; i < domains; i++ {
		names = append(names, fmt.Sprintf("d%d.pool.test", i))
	}
	f := startPolicyHosts(t, names...)
	var wg sync.WaitGroup
	errs := make(chan error, domains*rounds)
	for _, d := range names {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(d string) {
				defer wg.Done()
				p, _, err := f.Fetch(context.Background(), d)
				if err != nil || len(p.MXPatterns) != 1 || p.MXPatterns[0] != "mx."+d {
					errs <- fmt.Errorf("%s: %+v, %v", d, p, err)
				}
			}(d)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkFetch times one cold policy fetch (TCP, TLS handshake,
// HTTP GET, parse) against a loopnet policy host over loopback. The
// in-process server's share of the work is in the figures.
func BenchmarkFetch(b *testing.B) {
	f := startPolicyHosts(b, "bench.test")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Fetch(ctx, "bench.test"); err != nil {
			b.Fatal(err)
		}
	}
}
