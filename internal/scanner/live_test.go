package scanner

import (
	"context"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// liveNow anchors the certificate windows of every described domain and
// the offline side of the equivalence test.
var liveNow = time.Now()

// liveNet starts a loopback Internet and a Live scanner pointed at it.
func liveNet(t *testing.T) (*loopnet.Net, *Live) {
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
	dns := resolver.New(n.DNS.Addr().String())
	return n, &Live{
		DNS: dns,
		Fetcher: &mtasts.Fetcher{
			Resolver: TXTResolverAdapter{Client: dns}, RootCAs: n.CA.Pool(),
			Port: n.Policy.Port(), Timeout: 3 * time.Second,
		},
		Prober: &smtpclient.Prober{
			HeloName: "scanner.test", Roots: n.CA.Pool(),
			Port: n.SMTPPort, Timeout: 3 * time.Second,
		},
	}
}

func enforceFor(mx ...string) mtasts.Policy {
	return mtasts.Policy{Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400, MXPatterns: mx}
}

// liveArtifacts describes a complete, healthy MTA-STS deployment of
// domain behind one MX host. Tests break a copy in one place and hand it
// to serve, to ScanArtifacts, or to both.
func liveArtifacts(domain, mx string) Artifacts {
	return Artifacts{
		Domain:             domain,
		TXT:                []string{"v=STSv1; id=20240929;"},
		MXHosts:            []string{mx},
		PolicyHostResolves: true,
		TCPOpen:            true,
		PolicyCert:         pki.GoodProfile(liveNow, mtasts.PolicyHost(domain)),
		HTTPStatus:         200,
		PolicyBody:         []byte(enforceFor(mx).String()),
		MXSTARTTLS:         map[string]bool{mx: true},
		MXCerts:            map[string]pki.CertProfile{mx: pki.GoodProfile(liveNow, mx)},
	}
}

// serve publishes on n what a describes, so a live scan of a.Domain
// observes what an offline scan of a is told: MX certificate profiles
// become issued certificates, the policy certificate profile a
// policysrv.CertMode, status and body an HTTPMode, a closed port or an
// unresolvable policy host the matching address record. An MX host an
// earlier domain already brought up is shared, not restarted.
func serve(t *testing.T, n *loopnet.Net, a Artifacts) {
	t.Helper()
	for _, mx := range a.MXHosts {
		if n.MX(mx) != nil {
			continue
		}
		b := smtpd.Behavior{DisableSTARTTLS: !a.MXSTARTTLS[mx]}
		if p := a.MXCerts[mx]; !b.DisableSTARTTLS {
			b.Certificate = n.Cert(pki.IssueOptions{
				Names: p.Names, NotBefore: p.NotBefore, NotAfter: p.NotAfter, SelfSigned: p.SelfSigned})
		}
		if _, err := n.AddMX(b, mx); err != nil {
			t.Fatal(err)
		}
	}
	d := loopnet.Domain{Name: a.Domain, MX: a.MXHosts, TXT: a.TXT, CNAME: a.PolicyCNAME}
	if a.TXT != nil {
		d.Tenant = &policysrv.Tenant{}
		switch {
		case !a.PolicyHostResolves:
			d.Host = loopnet.Unresolvable
		case !a.TCPOpen:
			d.Host = loopnet.ClosedPort
		}
		switch c := a.PolicyCert; {
		case c.Missing:
			d.Tenant.CertMode = policysrv.CertMissing
		case c.SelfSigned:
			d.Tenant.CertMode = policysrv.CertSelfSigned
		case c.NotAfter.Before(liveNow):
			d.Tenant.CertMode = policysrv.CertExpired
		case !c.Covers(mtasts.PolicyHost(a.Domain)):
			d.Tenant.CertMode = policysrv.CertWrongName
		}
		policy, err := mtasts.ParsePolicy(a.PolicyBody)
		switch {
		case a.HTTPStatus == 404:
			d.Tenant.HTTPMode = policysrv.HTTPNotFound
		case a.HTTPStatus == 500:
			d.Tenant.HTTPMode = policysrv.HTTPServerError
		case a.HTTPStatus == 301:
			d.Tenant.HTTPMode = policysrv.HTTPRedirect
		case a.HTTPStatus != 200:
			t.Fatalf("serve: no HTTPMode answers %d", a.HTTPStatus)
		case len(a.PolicyBody) == 0:
			d.Tenant.HTTPMode = policysrv.HTTPEmptyBody
		case err != nil:
			d.Tenant.HTTPMode = policysrv.HTTPGarbage
		default:
			d.Tenant.Policy = policy
		}
	}
	n.AddDomain(d)
}

func TestLiveScanCleanDomain(t *testing.T) {
	n, live := liveNet(t)
	serve(t, n, liveArtifacts("good.com", "mx.good.com"))

	r := live.ScanDomain(context.Background(), "good.com")
	if !r.RecordValid || !r.PolicyOK {
		t.Fatalf("r = %+v", r)
	}
	if r.Misconfigured() {
		t.Errorf("clean live domain misconfigured: %v (policy stage %v, mx %v)",
			r.Categories(), r.PolicyStage, r.MXProblems)
	}
	if p, ok := r.MXProblems["mx.good.com"]; !ok || p != pki.OK {
		t.Errorf("MX problem = %v (ok=%v)", p, ok)
	}
}

func TestLiveScanNoRecord(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("plain.com", "mx.plain.com")
	a.TXT = nil
	serve(t, n, a)
	r := live.ScanDomain(context.Background(), "plain.com")
	if r.RecordPresent {
		t.Errorf("r = %+v", r)
	}
}

func TestLiveScanBadRecordGoodPolicy(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("badrec.com", "mx.badrec.com")
	a.TXT = []string{"v=STSv1; id=bad-id;"}
	serve(t, n, a)

	r := live.ScanDomain(context.Background(), "badrec.com")
	if !r.RecordPresent || r.RecordValid {
		t.Fatalf("r.Record = %+v err=%v", r.Record, r.RecordErr)
	}
	if !hasCategory(r, CategoryDNSRecord) {
		t.Errorf("categories = %v", r.Categories())
	}
	// The policy itself still fetches fine.
	if !r.PolicyOK {
		t.Errorf("policy stage = %v", r.PolicyStage)
	}
}

func TestLiveScanPolicyDNSError(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("nodns.com", "mx.nodns.com")
	a.PolicyHostResolves = false
	serve(t, n, a)

	r := live.ScanDomain(context.Background(), "nodns.com")
	if r.PolicyOK || r.PolicyStage != mtasts.StageDNS {
		t.Errorf("stage = %v", r.PolicyStage)
	}
}

func TestLiveScanPolicyTLSError(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("badtls.com", "mx.badtls.com")
	a.PolicyCert = pki.GoodProfile(liveNow, "badtls.com")
	serve(t, n, a)

	r := live.ScanDomain(context.Background(), "badtls.com")
	if r.PolicyStage != mtasts.StageTLS || r.PolicyCertProblem != pki.ProblemNameMismatch {
		t.Errorf("stage=%v problem=%v", r.PolicyStage, r.PolicyCertProblem)
	}
}

func TestLiveScanInconsistentPolicy(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("drift.com", "mx.drift.com")
	a.PolicyBody = []byte(enforceFor("mx.formerhost.net").String())
	serve(t, n, a)

	r := live.ScanDomain(context.Background(), "drift.com")
	if !r.PolicyOK {
		t.Fatalf("policy stage = %v", r.PolicyStage)
	}
	if r.Mismatch.Kind != inconsistency.KindDomain {
		t.Errorf("mismatch = %v", r.Mismatch.Kind)
	}
	if !r.DeliveryFailure() {
		t.Error("enforce + full mismatch should be a delivery failure")
	}
}

func TestLiveScanMXBadCert(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("badmx.com", "mx.badmx.com")
	a.MXCerts["mx.badmx.com"] = pki.SelfSignedProfile(liveNow, "mx.badmx.com")
	serve(t, n, a)

	r := live.ScanDomain(context.Background(), "badmx.com")
	if p := r.MXProblems["mx.badmx.com"]; p != pki.ProblemSelfSigned {
		t.Errorf("MX problem = %v", p)
	}
	if !hasCategory(r, CategoryMXCert) || !r.DeliveryFailure() {
		t.Errorf("categories = %v, failure = %v", r.Categories(), r.DeliveryFailure())
	}
}

func TestLiveScanPolicyDelegationCNAME(t *testing.T) {
	n, live := liveNet(t)
	a := liveArtifacts("delegated.com", "mx.delegated.com")
	a.PolicyCNAME = "provider-policy.com"
	serve(t, n, a)

	r := live.ScanDomain(context.Background(), "delegated.com")
	if r.PolicyCNAME != "provider-policy.com" {
		t.Errorf("PolicyCNAME = %q", r.PolicyCNAME)
	}
	if !r.PolicyOK {
		t.Errorf("policy stage = %v", r.PolicyStage)
	}
}

func TestRunnerParallelScan(t *testing.T) {
	n, live := liveNet(t)
	serve(t, n, liveArtifacts("par.com", "mx.par.com"))
	runner := &Runner{Workers: 4, Scan: live}
	results := runner.Run(context.Background(), []string{"par.com", "par.com", "par.com", "absent.com"})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	s := Summarize(results)
	if s.Total != 4 || s.WithRecord != 3 {
		t.Errorf("summary = %+v", s)
	}
}
