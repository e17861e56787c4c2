package mta

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/dane"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnssec"
	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpd"
	"github.com/netsecurelab/mtasts/internal/store"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// startNet brings up the loopback Internet the outbound-MTA tests deliver
// into.
func startNet(t *testing.T) *loopnet.Net {
	t.Helper()
	n, err := loopnet.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Errorf("closing the loopback Internet: %v", err)
		}
	})
	return n
}

// addMX boots a mail-accepting SMTP server for mxHost (selfSigned
// controls its certificate) and publishes the TLSA record matching that
// certificate, so DANE tests opt in by enabling DANE on the Outbound.
func addMX(t *testing.T, n *loopnet.Net, mxHost string, selfSigned bool) *smtpd.Server {
	t.Helper()
	cert := n.Cert(pki.IssueOptions{Names: []string{mxHost}, SelfSigned: selfSigned})
	srv, err := n.AddMX(smtpd.Behavior{Certificate: cert, AcceptMail: true}, mxHost)
	if err != nil {
		t.Fatal(err)
	}
	n.Zone(mxHost).MustAdd(dane.NewEE3(cert.Leaf).RR(mxHost, 300))
	return srv
}

// addDomain publishes MX records and, with a policy, the MTA-STS
// deployment of a recipient domain.
func addDomain(n *loopnet.Net, domain string, mxHosts []string, policy *mtasts.Policy) {
	d := loopnet.Domain{Name: domain, MX: mxHosts}
	if policy != nil {
		d.TXT = []string{"v=STSv1; id=20240929;"}
		d.Tenant = &policysrv.Tenant{Policy: *policy}
	}
	n.AddDomain(d)
}

// outbound builds an Outbound wired to the loopback Internet.
func outbound(n *loopnet.Net, daneEnabled bool) *Outbound {
	dnsClient := resolver.New(n.DNS.Addr().String())
	adapter := scanner.TXTResolverAdapter{Client: dnsClient}
	return &Outbound{
		DNS: dnsClient,
		Validator: &mtasts.Validator{
			Resolver: adapter,
			Fetcher: &mtasts.Fetcher{
				Resolver: adapter,
				RootCAs:  n.CA.Pool(),
				Port:     n.Policy.Port(),
				Timeout:  5 * time.Second,
			},
			Cache: mtasts.NewPolicyCache(64),
		},
		Roots:        n.CA.Pool(),
		HeloName:     "outbound.lab",
		AddrOverride: n.DialAddr,
		DANEEnabled:  daneEnabled,
		Timeout:      5 * time.Second,
	}
}

// memCache opens a policy cache over a fresh in-memory store, closed
// when the test ends.
func memCache(t *testing.T, o mtasts.CacheOptions) *mtasts.PolicyCache {
	t.Helper()
	c, err := mtasts.OpenPolicyCache(store.NewMem(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

func enforce(mx ...string) *mtasts.Policy {
	return &mtasts.Policy{Version: mtasts.Version, Mode: mtasts.ModeEnforce,
		MaxAge: 86400, MXPatterns: mx}
}

func TestSendMTASTSHappyPath(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.alpha.test", false)
	addDomain(n, "alpha.test", []string{"mx.alpha.test"}, enforce("mx.alpha.test"))

	o := outbound(n, false)
	out, err := o.Send(context.Background(), "a@sender.lab", []string{"b@alpha.test"}, []byte("hello\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !out.Delivered || out.Mechanism != MechanismMTASTS || !out.TLS || !out.CertVerified {
		t.Errorf("out = %+v", out)
	}
	if len(n.MX("mx.alpha.test").Messages()) != 1 {
		t.Error("message not in inbox")
	}
}

func TestSendDANEPrecedence(t *testing.T) {
	n := startNet(t)
	// Self-signed MX certificate: PKIX fails, but the published TLSA
	// record matches — DANE must take precedence and deliver.
	addMX(t, n, "mx.beta.test", true)
	addDomain(n, "beta.test", []string{"mx.beta.test"}, enforce("mx.beta.test"))

	o := outbound(n, true)
	out, err := o.Send(context.Background(), "a@sender.lab", []string{"b@beta.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if out.Mechanism != MechanismDANE || !out.CertVerified {
		t.Errorf("out = %+v", out)
	}
}

func TestSendDANEMismatchRefuses(t *testing.T) {
	n := startNet(t)
	srv := addMX(t, n, "mx.gamma.test", false)
	addDomain(n, "gamma.test", []string{"mx.gamma.test"}, enforce("mx.gamma.test"))
	// Replace the TLSA record with one for a different key: DANE must
	// refuse even though PKIX and MTA-STS would both pass.
	zone := n.Zone("mx.gamma.test")
	zone.Remove(dane.TLSAName("mx.gamma.test"), dnsmsg.TypeTLSA)
	other := n.Cert(pki.IssueOptions{Names: []string{"other.test"}})
	zone.MustAdd(dane.NewEE3(other.Leaf).RR("mx.gamma.test", 300))

	o := outbound(n, true)
	_, err := o.Send(context.Background(), "a@sender.lab", []string{"b@gamma.test"}, []byte("x\n"))
	if !errors.Is(err, ErrPolicyRefused) {
		t.Fatalf("err = %v", err)
	}
	if len(srv.Messages()) != 0 {
		t.Error("message delivered despite DANE mismatch")
	}
}

// TestSendDANEReportsRecipientDomain: DANE TLSRPT rows are filed under
// the recipient's policy domain, not a name derived from the MX host —
// a provider's shared MX names no customer. The first MX's TLSA record
// is for another key, so its delivery fails; the second delivers.
func TestSendDANEReportsRecipientDomain(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx1.provider.test", false)
	addMX(t, n, "mx2.provider.test", false)
	zone := n.Zone("mx1.provider.test")
	zone.Remove(dane.TLSAName("mx1.provider.test"), dnsmsg.TypeTLSA)
	other := n.Cert(pki.IssueOptions{Names: []string{"other.test"}})
	zone.MustAdd(dane.NewEE3(other.Leaf).RR("mx1.provider.test", 300))
	addDomain(n, "example.test", []string{"mx1.provider.test", "mx2.provider.test"},
		enforce("mx1.provider.test", "mx2.provider.test"))

	o := outbound(n, true)
	start := time.Now()
	o.Report = tlsrpt.NewReport("Lab", "mailto:r@lab.test", "rid", start, start.Add(24*time.Hour))
	out, err := o.Send(context.Background(), "a@s.lab", []string{"b@example.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if out.Mechanism != MechanismDANE || out.MXHost != "mx2.provider.test" {
		t.Fatalf("out = %+v, want DANE delivery via mx2.provider.test", out)
	}
	if err := o.Report.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if len(o.Report.Policies) != 1 {
		t.Fatalf("report holds %d policy rows, want one for example.test: %+v", len(o.Report.Policies), o.Report.Policies)
	}
	p := o.Report.Policy(tlsrpt.PolicyTypeTLSA, "example.test")
	if p.Summary.TotalSuccessfulSessionCount != 1 || p.Summary.TotalFailureSessionCount != 1 ||
		len(p.FailureDetails) != 1 || p.FailureDetails[0].ResultType != tlsrpt.ResultTLSAInvalid ||
		p.FailureDetails[0].ReceivingMXHostname != "mx1.provider.test" {
		t.Errorf("example.test TLSA row = %+v, want one success and one %s failure at mx1.provider.test",
			p, tlsrpt.ResultTLSAInvalid)
	}
}

// TestSendDANEGreylistedIsNotRefusal: a greylisting DANE MX never
// reached a DANE verdict, so the failure is a retryable delivery error
// (ErrAllMXFailed, not ErrPolicyRefused) and files no TLSRPT entry.
func TestSendDANEGreylistedIsNotRefusal(t *testing.T) {
	n := startNet(t)
	const mxHost = "mx.grey.test"
	cert := n.Cert(pki.IssueOptions{Names: []string{mxHost}})
	srv, err := n.AddMX(smtpd.Behavior{Certificate: cert, AcceptMail: true, Greylist: true}, mxHost)
	if err != nil {
		t.Fatal(err)
	}
	n.Zone(mxHost).MustAdd(dane.NewEE3(cert.Leaf).RR(mxHost, 300))
	addDomain(n, "grey.test", []string{mxHost}, enforce(mxHost))

	o := outbound(n, true)
	start := time.Now()
	o.Report = tlsrpt.NewReport("Lab", "mailto:r@lab.test", "rid", start, start.Add(24*time.Hour))
	_, err = o.Send(context.Background(), "a@s.lab", []string{"b@grey.test"}, []byte("x\n"))
	if !errors.Is(err, ErrAllMXFailed) || errors.Is(err, ErrPolicyRefused) {
		t.Fatalf("err = %v, want ErrAllMXFailed and not ErrPolicyRefused", err)
	}
	if len(srv.Messages()) != 0 {
		t.Error("greylisted MX accepted the message")
	}
	if len(o.Report.Policies) != 0 {
		t.Errorf("report holds %d policy rows for a greylisted session, want none: %+v",
			len(o.Report.Policies), o.Report.Policies)
	}
}

func TestSendMTASTSEnforceMismatchRefuses(t *testing.T) {
	n := startNet(t)
	srv := addMX(t, n, "mx.delta.test", false)
	addDomain(n, "delta.test", []string{"mx.delta.test"}, enforce("mx.otherhost.test"))

	o := outbound(n, false)
	_, err := o.Send(context.Background(), "a@sender.lab", []string{"b@delta.test"}, []byte("x\n"))
	if !errors.Is(err, ErrPolicyRefused) {
		t.Fatalf("err = %v", err)
	}
	if len(srv.Messages()) != 0 {
		t.Error("message delivered despite policy mismatch")
	}
}

func TestSendMultiMXFailover(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx1.eps.test", false)
	addMX(t, n, "mx2.eps.test", false)
	// The policy only authorizes the second MX: the first candidate is
	// refused per-MX, the second delivers.
	addDomain(n, "eps.test", []string{"mx1.eps.test", "mx2.eps.test"}, enforce("mx2.eps.test"))

	o := outbound(n, false)
	out, err := o.Send(context.Background(), "a@sender.lab", []string{"b@eps.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if out.MXHost != "mx2.eps.test" {
		t.Errorf("delivered via %s", out.MXHost)
	}
	if len(n.MX("mx1.eps.test").Messages()) != 0 || len(n.MX("mx2.eps.test").Messages()) != 1 {
		t.Error("wrong inbox")
	}
}

func TestSendImplicitMX(t *testing.T) {
	n := startNet(t)
	// No MX record: the apex A record makes the domain its own mail host
	// (RFC 5321 §5.1).
	addMX(t, n, "zeta.test", false)
	o := outbound(n, false)
	out, err := o.Send(context.Background(), "a@sender.lab", []string{"b@zeta.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if out.MXHost != "zeta.test" || out.Mechanism != MechanismOpportunistic {
		t.Errorf("out = %+v", out)
	}
}

func TestSendNoMXNoA(t *testing.T) {
	n := startNet(t)
	n.Zone("test") // authoritative for .test: the missing domain is NXDOMAIN, not REFUSED
	o := outbound(n, false)
	_, err := o.Send(context.Background(), "a@sender.lab", []string{"b@ghost.test"}, []byte("x\n"))
	if !errors.Is(err, ErrNoMX) {
		t.Fatalf("err = %v", err)
	}
}

func TestSendTLSRPTAccounting(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.eta.test", false)
	addDomain(n, "eta.test", []string{"mx.eta.test"}, enforce("mx.eta.test"))
	addMX(t, n, "mx.theta.test", false)
	addDomain(n, "theta.test", []string{"mx.theta.test"}, enforce("mx.wrong.test"))

	o := outbound(n, false)
	start := time.Now()
	o.Report = tlsrpt.NewReport("Lab", "mailto:r@lab.test", "rid", start, start.Add(24*time.Hour))

	if _, err := o.Send(context.Background(), "a@s.lab", []string{"b@eta.test"}, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Send(context.Background(), "a@s.lab", []string{"b@theta.test"}, []byte("x\n")); err == nil {
		t.Fatal("expected refusal")
	}
	if err := o.Report.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	ok := o.Report.Policy(tlsrpt.PolicyTypeSTS, "eta.test")
	if ok.Summary.TotalSuccessfulSessionCount != 1 {
		t.Errorf("eta summary = %+v", ok.Summary)
	}
	bad := o.Report.Policy(tlsrpt.PolicyTypeSTS, "theta.test")
	if bad.Summary.TotalFailureSessionCount != 1 {
		t.Errorf("theta summary = %+v", bad.Summary)
	}
}

// An enforce-mode domain whose MX answers only HELO goes through the
// sender's session like any other: without STARTTLS the delivery is
// refused and RFC 8460 accounting records one starttls-not-supported
// failure; with STARTTLS and a valid certificate the message goes out
// over verified TLS and the session counts as a success.
func TestSendHELOOnlyMXTLSRPT(t *testing.T) {
	n := startNet(t)
	if _, err := n.AddMX(smtpd.Behavior{DisableEHLO: true, DisableSTARTTLS: true, AcceptMail: true}, "mx.iota.test"); err != nil {
		t.Fatal(err)
	}
	addDomain(n, "iota.test", []string{"mx.iota.test"}, enforce("mx.iota.test"))
	cert := n.Cert(pki.IssueOptions{Names: []string{"mx.kappa.test"}})
	if _, err := n.AddMX(smtpd.Behavior{Certificate: cert, DisableEHLO: true, AcceptMail: true}, "mx.kappa.test"); err != nil {
		t.Fatal(err)
	}
	addDomain(n, "kappa.test", []string{"mx.kappa.test"}, enforce("mx.kappa.test"))

	o := outbound(n, false)
	start := time.Now()
	o.Report = tlsrpt.NewReport("Lab", "mailto:r@lab.test", "rid", start, start.Add(24*time.Hour))
	ctx := context.Background()

	if _, err := o.Send(ctx, "a@s.lab", []string{"b@iota.test"}, []byte("x\n")); !errors.Is(err, ErrPolicyRefused) {
		t.Errorf("HELO-only MX without STARTTLS: err = %v, want ErrPolicyRefused", err)
	}
	bad := o.Report.Policy(tlsrpt.PolicyTypeSTS, "iota.test")
	if bad.Summary.TotalFailureSessionCount != 1 || bad.Summary.TotalSuccessfulSessionCount != 0 ||
		len(bad.FailureDetails) != 1 || bad.FailureDetails[0].ResultType != tlsrpt.ResultSTARTTLSNotSupported {
		t.Errorf("iota report = %+v, want one %s failure", bad, tlsrpt.ResultSTARTTLSNotSupported)
	}
	if got := len(n.MX("mx.iota.test").Messages()); got != 0 {
		t.Errorf("refused delivery reached the inbox (%d messages)", got)
	}

	out, err := o.Send(ctx, "a@s.lab", []string{"b@kappa.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("HELO-only MX with STARTTLS: %v", err)
	}
	if !out.Delivered || !out.TLS || !out.CertVerified {
		t.Errorf("out = %+v, want delivered over verified TLS", out)
	}
	ok := o.Report.Policy(tlsrpt.PolicyTypeSTS, "kappa.test")
	if ok.Summary.TotalSuccessfulSessionCount != 1 || ok.Summary.TotalFailureSessionCount != 0 {
		t.Errorf("kappa summary = %+v, want one success", ok.Summary)
	}
}

func TestSendAddressValidation(t *testing.T) {
	n := startNet(t)
	o := outbound(n, false)
	ctx := context.Background()
	if _, err := o.Send(ctx, "a@s.lab", nil, []byte("x")); !errors.Is(err, ErrNoRecipients) {
		t.Errorf("no recipients err = %v", err)
	}
	if _, err := o.Send(ctx, "a@s.lab", []string{"no-at-sign"}, []byte("x")); err == nil {
		t.Error("malformed address accepted")
	}
	if _, err := o.Send(ctx, "a@s.lab", []string{"a@x.test", "b@y.test"}, []byte("x")); err == nil {
		t.Error("cross-domain recipients accepted")
	}
}

func TestRefreshPolicies(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.iota.test", false)
	pol := enforce("mx.iota.test")
	pol.MaxAge = 3600
	addDomain(n, "iota.test", []string{"mx.iota.test"}, pol)

	o := outbound(n, false)
	clk := clock.NewFake(time.Now())
	o.Validator.Cache = memCache(t, mtasts.CacheOptions{Clock: clk})
	if _, err := o.Send(context.Background(), "a@s.lab", []string{"b@iota.test"}, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	// Not yet near expiry: nothing refreshed.
	if n := o.RefreshPolicies(context.Background(), 10*time.Minute); n != 0 {
		t.Errorf("refreshed %d, want 0", n)
	}
	// Advance to within the refresh window.
	clk.Advance(55 * time.Minute)
	if n := o.RefreshPolicies(context.Background(), 10*time.Minute); n != 1 {
		t.Errorf("refreshed %d, want 1", n)
	}
	// The refreshed entry is fresh again (expires ~1h from the new now).
	if _, ok := o.Validator.Cache.Get("iota.test"); !ok {
		t.Error("policy missing after refresh")
	}
}

// With no cache there is nothing to revalidate: RefreshPolicies must
// return 0 rather than reach through a nil cache.
func TestRefreshPoliciesNilCache(t *testing.T) {
	o := &Outbound{Validator: &mtasts.Validator{}}
	if n := o.RefreshPolicies(context.Background(), time.Hour); n != 0 {
		t.Errorf("refreshed %d, want 0", n)
	}
}

// A failed refetch must never evict the still-valid policy it was trying
// to revalidate — the eviction-before-revalidation bug reopened the
// TLS-fallback downgrade window on every refresh hiccup.
func TestRefreshFailurePreservesPolicy(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.kappa.test", false)
	pol := enforce("mx.kappa.test")
	pol.MaxAge = 3600
	addDomain(n, "kappa.test", []string{"mx.kappa.test"}, pol)

	o := outbound(n, false)
	o.Obs = obs.NewRegistry()
	clk := clock.NewFake(time.Now())
	pc := memCache(t, mtasts.CacheOptions{Clock: clk})
	o.Validator.Cache = pc
	if _, err := o.Send(context.Background(), "a@s.lab", []string{"b@kappa.test"}, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	cached, ok := pc.Get("kappa.test")
	if !ok {
		t.Fatal("policy not cached after delivery")
	}

	// Policy host dies; the entry drifts into the refresh window. The
	// refetch fails, and the cached policy must survive untouched.
	if err := n.Policy.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(55 * time.Minute)
	if n := o.RefreshPolicies(context.Background(), 10*time.Minute); n != 0 {
		t.Errorf("refreshed %d, want 0", n)
	}
	if v := o.Obs.Counter("mta.refresh.failures").Value(); v == 0 {
		t.Error("mta.refresh.failures not counted")
	}
	after, ok := pc.Get("kappa.test")
	if !ok {
		t.Fatal("failed refetch evicted a still-fresh policy")
	}
	if !after.Expires.Equal(cached.Expires) {
		t.Error("entry replaced without a successful fetch")
	}
}

// The acceptance drill: with a cached enforce policy and the policy host
// down, deliveries past max_age keep enforcing the stale policy (served
// from the durable cache, counters incrementing) instead of downgrading
// to unvalidated TLS.
func TestStaleServeNoDowngradeDrill(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.lambda.test", false)
	pol := enforce("mx.lambda.test")
	pol.MaxAge = 3600
	addDomain(n, "lambda.test", []string{"mx.lambda.test"}, pol)

	o := outbound(n, false)
	clk := clock.NewFake(time.Now())
	cache := memCache(t, mtasts.CacheOptions{Clock: clk})
	o.Validator.Cache = cache

	// Cold delivery populates the cache.
	out, err := o.Send(context.Background(), "a@s.lab", []string{"b@lambda.test"}, []byte("x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Mechanism != MechanismMTASTS {
		t.Fatalf("cold delivery = %+v", out)
	}

	// Policy host dies and the policy expires. Delivery must keep
	// enforcing the stale policy from cache.
	if err := n.Policy.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour) // past max_age, inside the stale window
	out, err = o.Send(context.Background(), "a@s.lab", []string{"b@lambda.test"}, []byte("y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Mechanism != MechanismMTASTS || !out.CertVerified {
		t.Fatalf("stale delivery downgraded: %+v", out)
	}
	if !out.Evaluation.PolicyStale {
		t.Error("evaluation did not mark the policy stale")
	}
	s := cache.Stats()
	if s.StaleServed == 0 {
		t.Error("stale_served did not increment")
	}
	if s.RefreshFailures == 0 {
		t.Error("refresh_failures did not increment")
	}
	if len(n.MX("mx.lambda.test").Messages()) != 2 {
		t.Error("second message not delivered")
	}
}

func TestMechanismString(t *testing.T) {
	for m, want := range map[Mechanism]string{
		MechanismNone: "none", MechanismOpportunistic: "opportunistic",
		MechanismMTASTS: "mta-sts", MechanismDANE: "dane", MechanismPKIX: "pkix",
	} {
		if m.String() != want {
			t.Errorf("Mechanism(%d) = %q", int(m), m.String())
		}
	}
}

// TestSendDANEWithRealDNSSEC exercises the full stack: the recipient zone
// is DNSSEC-signed, the sender runs a chain-validating resolver, and DANE
// only applies because the TLSA RRset cryptographically validates.
func TestSendDANEWithRealDNSSEC(t *testing.T) {
	n := startNet(t)
	leafSrv := addMX(t, n, "mx.signed.test", true) // self-signed cert, TLSA matches
	_ = leafSrv
	addDomain(n, "signed.test", []string{"mx.signed.test"}, nil)

	// Sign the lab zone and configure the trust anchor.
	signer, err := dnssec.NewSigner("test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnssec.SignZone(n.Zone("test"), signer, time.Now().Add(-time.Hour), time.Now().Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	o := outbound(n, true)
	o.DNSSEC = dnssec.NewValidator(o.DNS)
	if err := o.DNSSEC.AddAnchor(signer.DS()); err != nil {
		t.Fatal(err)
	}

	out, err := o.Send(context.Background(), "a@sender.lab", []string{"b@signed.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if out.Mechanism != MechanismDANE || !out.CertVerified {
		t.Errorf("out = %+v", out)
	}
}

// TestSendDANESkippedWhenChainInvalid: with a chain-validating resolver
// and NO trust anchor, the TLSA RRset is insecure, DANE does not apply,
// and delivery falls through to the next mechanism (opportunistic here).
func TestSendDANESkippedWhenChainInvalid(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.unsigned.test", false)
	addDomain(n, "unsigned.test", []string{"mx.unsigned.test"}, nil)

	o := outbound(n, true)
	o.DNSSEC = dnssec.NewValidator(o.DNS) // no anchors: nothing validates

	out, err := o.Send(context.Background(), "a@sender.lab", []string{"b@unsigned.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if out.Mechanism == MechanismDANE {
		t.Errorf("DANE applied without a validated chain: %+v", out)
	}
}

// Concurrent deliveries to one cold domain must collapse to a single
// policy fetch (stampede protection). The identity misses - collapsed ==
// leader fetches holds regardless of interleaving; the injected policy-
// host latency makes the deliveries actually overlap.
func TestConcurrentDeliveriesCollapseToOneFetch(t *testing.T) {
	n := startNet(t)
	addMX(t, n, "mx.mu.test", false)
	addDomain(n, "mu.test", []string{"mx.mu.test"}, enforce("mx.mu.test"))

	o := outbound(n, false)
	cache := memCache(t, mtasts.CacheOptions{})
	o.Validator.Cache = cache
	n.Policy.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, LatencyRate: 1, Latency: 200 * time.Millisecond}))

	const senders = 8
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = o.Send(context.Background(), "a@s.lab", []string{"b@mu.test"}, []byte("x\n"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	s := cache.Stats()
	if leaders := s.Misses - s.Collapsed; leaders != 1 {
		t.Errorf("policy fetched %d times for %d concurrent deliveries (stats %+v)", leaders, senders, s)
	}
	if got := len(n.MX("mx.mu.test").Messages()); got != senders {
		t.Errorf("inbox has %d messages, want %d", got, senders)
	}
}
