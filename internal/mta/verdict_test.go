package mta

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/smtpd"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// TestSenderReportsWhatTheScannerSees holds the paper's two halves to one
// verdict over the MX shapes TestProberAndSenderAgree serves: the
// scanner's probe rates an MX valid exactly when an enforcing sender
// delivers to it over verified TLS, and every TLSRPT failure a testing or
// an enforcing sender files for it carries the result type errtax's
// column gives the code the probe reports.
func TestSenderReportsWhatTheScannerSees(t *testing.T) {
	n := startNet(t)
	now := time.Now()
	rows := []struct {
		label string
		// behavior is the MX's server; AddMX names it and installs a
		// valid certificate when it has none.
		behavior smtpd.Behavior
	}{
		{"valid", smtpd.Behavior{}},
		{"expired", smtpd.Behavior{Certificate: n.Cert(pki.IssueOptions{Names: []string{"mx.expired.test"},
			NotBefore: now.Add(-48 * time.Hour), NotAfter: now.Add(-24 * time.Hour)})}},
		{"wrongname", smtpd.Behavior{Certificate: n.Cert(pki.IssueOptions{Names: []string{"other.example.net"}})}},
		{"selfsigned", smtpd.Behavior{Certificate: n.Cert(pki.IssueOptions{Names: []string{"mx.selfsigned.test"}, SelfSigned: true})}},
		{"nostarttls", smtpd.Behavior{DisableSTARTTLS: true}},
		{"nocert", smtpd.Behavior{}},
	}
	modes := []mtasts.Mode{mtasts.ModeTesting, mtasts.ModeEnforce}
	for _, r := range rows {
		mx := "mx." + r.label + ".test"
		r.behavior.AcceptMail = true
		srv, err := n.AddMX(r.behavior, mx)
		if err != nil {
			t.Fatal(err)
		}
		if r.label == "nocert" {
			// AddMX installs a valid certificate when none is given; take
			// it away so STARTTLS is offered and the handshake fails.
			srv.SetBehavior(smtpd.Behavior{Hostname: mx, AcceptMail: true})
		}
		for _, m := range modes {
			addDomain(n, r.label+"-"+string(m)+".test", []string{mx}, &mtasts.Policy{
				Version: mtasts.Version, Mode: m, MaxAge: 86400, MXPatterns: []string{mx}})
		}
	}

	dns := resolver.New(n.DNS.Addr().String())
	live := &scanner.Live{DNS: dns, Prober: &smtpclient.Prober{HeloName: "scanner.lab",
		Roots: n.CA.Pool(), Port: n.SMTPPort, Timeout: 5 * time.Second}}
	ctx := context.Background()
	for _, r := range rows {
		mx := "mx." + r.label + ".test"
		probed := live.ProbeHost(ctx, mx)
		code := probed.Problem.Code()
		if probed.NoSTARTTLS {
			code = errtax.CodeNoSTARTTLS
		}
		valid := !probed.NoSTARTTLS && probed.Problem.Valid()
		info, _ := errtax.Lookup(code)
		want := tlsrpt.ResultType(info.TLSRPT)

		for _, m := range modes {
			domain := r.label + "-" + string(m) + ".test"
			o := outbound(n, false)
			start := time.Now()
			o.Report = tlsrpt.NewReport("Lab", "mailto:r@lab.test", domain, start, start.Add(time.Hour))
			out, err := o.Send(ctx, "a@s.lab", []string{"b@" + domain}, []byte("x\n"))
			verdicts := func() string {
				return fmt.Sprintf("probe: valid %v, code %s; sender: delivered %v, TLS %v, verified %v, err %v",
					valid, code, out.Delivered, out.TLS, out.CertVerified, err)
			}
			if m == mtasts.ModeEnforce && valid != (err == nil && out.CertVerified) {
				t.Errorf("%s under enforce: %s", r.label, verdicts())
			}
			if m == mtasts.ModeTesting && err != nil {
				t.Errorf("%s under testing: %s", r.label, verdicts())
			}
			p := o.Report.Policy(tlsrpt.PolicyTypeSTS, domain)
			switch {
			case p == nil:
				t.Errorf("%s under %s: no report section for %s; %s", r.label, m, domain, verdicts())
			case valid && (p.Summary.TotalSuccessfulSessionCount != 1 || len(p.FailureDetails) != 0):
				t.Errorf("%s under %s: report %+v, want one success; %s", r.label, m, p, verdicts())
			case !valid && (p.Summary.TotalFailureSessionCount != 1 || len(p.FailureDetails) != 1):
				t.Errorf("%s under %s: report %+v, want one failure; %s", r.label, m, p, verdicts())
			case !valid && p.FailureDetails[0].ResultType != want:
				t.Errorf("%s under %s: result type %s, the errtax column for %s says %s; %s",
					r.label, m, p.FailureDetails[0].ResultType, code, want, verdicts())
			}
		}
	}
}
