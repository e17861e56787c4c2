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
	"net"
	"net/netip"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// liveLab is a loopback substrate shared by the live benchmarks.
type liveLab struct {
	ca      *pki.CA
	dnsAddr string
	pol     *policysrv.Server
	smtp    int // SMTP port
	live    *scanner.Live
}

var (
	labOnce sync.Once
	lab     *liveLab
	labErr  error
)

func getLab(b *testing.B) *liveLab {
	b.Helper()
	labOnce.Do(func() { lab, labErr = buildLab() })
	if labErr != nil {
		b.Fatalf("lab: %v", labErr)
	}
	return lab
}

func buildLab() (*liveLab, error) {
	const domain = "bench.example"
	mxHost := "mx." + domain
	ca, err := pki.NewCA("Bench CA", time.Now())
	if err != nil {
		return nil, err
	}
	zone := dnszone.New(domain)
	loop := dnsmsg.AData{Addr: netip.MustParseAddr("127.0.0.1")}
	zone.MustAdd(dnsmsg.RR{Name: "_mta-sts." + domain, Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN,
		TTL: 300, Data: dnsmsg.NewTXT("v=STSv1; id=bench1;")})
	zone.MustAdd(dnsmsg.RR{Name: "mta-sts." + domain, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, Data: loop})
	zone.MustAdd(dnsmsg.RR{Name: domain, Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.MXData{Preference: 10, Host: mxHost}})
	zone.MustAdd(dnsmsg.RR{Name: mxHost, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, Data: loop})
	dns := dnsserver.New(nil)
	dns.AddZone(zone)
	dnsAddr, err := dns.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	pol := policysrv.New(ca, nil)
	pol.AddTenant(&policysrv.Tenant{Domain: domain, Policy: mtasts.Policy{
		Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400,
		MXPatterns: []string{mxHost},
	}})
	if _, err := pol.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}

	leaf, err := ca.Issue(pki.IssueOptions{Names: []string{mxHost}})
	if err != nil {
		return nil, err
	}
	cert := leaf.TLSCertificate()
	mx := smtpd.New(smtpd.Behavior{Hostname: mxHost, Certificate: &cert})
	mxAddr, err := mx.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	_, portStr, _ := net.SplitHostPort(mxAddr.String())
	smtpPort, _ := strconv.Atoi(portStr)

	return &liveLab{
		ca:      ca,
		dnsAddr: dnsAddr.String(),
		pol:     pol,
		smtp:    smtpPort,
		live: &scanner.Live{
			DNS:       resolver.New(dnsAddr.String()),
			Roots:     ca.Pool(),
			HTTPSPort: pol.Port(),
			SMTPPort:  smtpPort,
			HeloName:  "bench.invalid",
			Timeout:   5 * time.Second,
		},
	}, nil
}

// BenchmarkAblationLiveScan scans one domain over real sockets (DNS over
// UDP, HTTPS policy fetch with a fresh TLS handshake, SMTP STARTTLS
// probe).
func BenchmarkAblationLiveScan(b *testing.B) {
	l := getLab(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := l.live.ScanDomain(ctx, "bench.example")
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
		ev, err := v.Validate(ctx, "bench.example", "mx.bench.example")
		if err != nil || ev.Action != mtasts.ActionDeliver {
			b.Fatalf("validate: %+v %v", ev, err)
		}
	}
}

// BenchmarkAblationValidatorWarmCache validates with the TOFU cache in
// place: after the first fetch, evaluations are pure in-memory work.
func BenchmarkAblationValidatorWarmCache(b *testing.B) {
	l := getLab(b)
	v := newBenchValidator(l, mtasts.NewPolicyCache(16))
	ctx := context.Background()
	if _, err := v.Validate(ctx, "bench.example", "mx.bench.example"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := v.Validate(ctx, "bench.example", "mx.bench.example")
		if err != nil || ev.Action != mtasts.ActionDeliver {
			b.Fatalf("validate: %+v %v", ev, err)
		}
	}
}

func newBenchValidator(l *liveLab, cache mtasts.PolicyStore) *mtasts.Validator {
	dnsClient := resolver.New(l.dnsAddr)
	return &mtasts.Validator{
		Resolver: scanner.TXTResolverAdapter{Client: dnsClient},
		Fetcher: &mtasts.Fetcher{
			Resolver: mtasts.AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
				addrs, err := dnsClient.LookupAddrs(ctx, host, false)
				if err != nil {
					return nil, err
				}
				out := make([]string, len(addrs))
				for i, a := range addrs {
					out[i] = a.String()
				}
				return out, nil
			}),
			RootCAs: l.ca.Pool(),
			Port:    l.pol.Port(),
			Timeout: 5 * time.Second,
		},
		Cache: cache,
	}
}

// BenchmarkAblationResolverNoCache measures raw wire lookups with the
// response cache disabled.
func BenchmarkAblationResolverNoCache(b *testing.B) {
	l := getLab(b)
	c := resolver.New(l.dnsAddr)
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
	c := resolver.New(l.dnsAddr)
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
