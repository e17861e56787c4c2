package mtastsrepro

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   * Live vs Offline scanning — the substitution argument: the offline
//     artifact path must be orders of magnitude cheaper than driving real
//     sockets while yielding the same verdicts (equality is pinned by
//     tests; the cost gap is measured here).
//   * The sender-side TOFU policy cache — cold (fetch over HTTPS every
//     time) vs warm (cache hit) validation.
//   * The resolver's response cache.

import (
	"context"
	"crypto/tls"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// The live benchmarks share one loopback Internet serving bench.example,
// left running until the test binary exits.
var (
	labOnce sync.Once
	lab     *loopnet.Net
	labErr  error
)

func getLab(b *testing.B) *loopnet.Net {
	b.Helper()
	labOnce.Do(func() { lab, labErr = buildLab() })
	if labErr != nil {
		b.Fatalf("lab: %v", labErr)
	}
	return lab
}

func buildLab() (*loopnet.Net, error) {
	const domain, mxHost = "bench.example", "mx.bench.example"
	n, err := loopnet.Start(context.Background())
	if err != nil {
		return nil, err
	}
	if _, err := n.AddMX(smtpd.Behavior{}, mxHost); err != nil {
		return nil, err
	}
	n.AddDomain(loopnet.Domain{
		Name: domain, MX: []string{mxHost}, TXT: []string{"v=STSv1; id=bench1;"},
		Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400,
			MXPatterns: []string{mxHost},
		}},
	})
	return n, nil
}

// BenchmarkAblationLiveScan scans one domain over real sockets (DNS over
// UDP, HTTPS policy fetch with a fresh TLS handshake, SMTP STARTTLS
// probe).
func BenchmarkAblationLiveScan(b *testing.B) {
	l := getLab(b)
	dns := resolver.New(l.DNS.Addr().String())
	live := &scanner.Live{
		DNS: dns,
		Fetcher: &mtasts.Fetcher{Resolver: scanner.TXTResolverAdapter{Client: dns},
			RootCAs: l.CA.Pool(), Port: l.Policy.Port(), Timeout: 5 * time.Second,
			SessionCache: tls.NewLRUClientSessionCache(1024)},
		Prober: &smtpclient.Prober{HeloName: "bench.invalid", Roots: l.CA.Pool(),
			Port: l.SMTPPort, Timeout: 5 * time.Second},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := live.ScanDomain(ctx, "bench.example")
		if !r.PolicyOK {
			b.Fatalf("scan failed: stage %v", r.PolicyStage)
		}
	}
}

// BenchmarkAblationOfflineScan evaluates the equivalent artifacts through
// the same parsers/validators with no sockets.
func BenchmarkAblationOfflineScan(b *testing.B) {
	now := time.Now()
	a := scanner.Artifacts{
		Domain:             "bench.example",
		TXT:                []string{"v=STSv1; id=bench1;"},
		MXHosts:            []string{"mx.bench.example"},
		PolicyHostResolves: true,
		TCPOpen:            true,
		PolicyCert:         pki.GoodProfile(now, "mta-sts.bench.example"),
		HTTPStatus:         200,
		PolicyBody:         []byte("version: STSv1\r\nmode: enforce\r\nmx: mx.bench.example\r\nmax_age: 86400\r\n"),
		MXSTARTTLS:         map[string]bool{"mx.bench.example": true},
		MXCerts:            map[string]pki.CertProfile{"mx.bench.example": pki.GoodProfile(now, "mx.bench.example")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := scanner.ScanArtifacts(a, now)
		if !r.PolicyOK {
			b.Fatal("offline scan failed")
		}
	}
}

// BenchmarkAblationValidatorColdCache validates with the policy cache
// disabled: every evaluation refetches the policy over HTTPS.
func BenchmarkAblationValidatorColdCache(b *testing.B) {
	l := getLab(b)
	v := newBenchValidator(l, nil)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := v.Validate(ctx, "bench.example", "mx.bench.example"); ev.Action != mtasts.ActionDeliver {
			b.Fatalf("validate: %+v", ev)
		}
	}
}

// BenchmarkAblationValidatorWarmCache validates with the TOFU cache in
// place: after the first fetch, evaluations are pure in-memory work.
func BenchmarkAblationValidatorWarmCache(b *testing.B) {
	l := getLab(b)
	v := newBenchValidator(l, mtasts.NewPolicyCache(16))
	ctx := context.Background()
	v.Validate(ctx, "bench.example", "mx.bench.example")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := v.Validate(ctx, "bench.example", "mx.bench.example"); ev.Action != mtasts.ActionDeliver {
			b.Fatalf("validate: %+v", ev)
		}
	}
}

func newBenchValidator(l *loopnet.Net, cache *mtasts.PolicyCache) *mtasts.Validator {
	adapter := scanner.TXTResolverAdapter{Client: resolver.New(l.DNS.Addr().String())}
	return &mtasts.Validator{
		Resolver: adapter,
		Fetcher: &mtasts.Fetcher{
			Resolver: adapter,
			RootCAs:  l.CA.Pool(),
			Port:     l.Policy.Port(),
			Timeout:  5 * time.Second,
		},
		Cache: cache,
	}
}

// BenchmarkAblationResolverNoCache measures raw wire lookups with the
// response cache disabled.
func BenchmarkAblationResolverNoCache(b *testing.B) {
	l := getLab(b)
	c := resolver.New(l.DNS.Addr().String())
	c.Cache = nil
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LookupTXT(ctx, "_mta-sts.bench.example"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationResolverWithCache measures cached lookups.
func BenchmarkAblationResolverWithCache(b *testing.B) {
	l := getLab(b)
	c := resolver.New(l.DNS.Addr().String())
	ctx := context.Background()
	if _, err := c.LookupTXT(ctx, "_mta-sts.bench.example"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LookupTXT(ctx, "_mta-sts.bench.example"); err != nil {
			b.Fatal(err)
		}
	}
}
