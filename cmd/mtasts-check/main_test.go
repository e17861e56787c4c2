package main

import (
	"bytes"
	"context"
	"encoding/pem"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// TestCheckVerdicts runs the command against a loopback Internet with
// one healthy domain and one whose policy host serves 404 and whose MX
// presents a self-signed certificate.
func TestCheckVerdicts(t *testing.T) {
	n, err := loopnet.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	})
	caFile := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(caFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: n.CA.Cert.Raw}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMX(smtpd.Behavior{}, "mx.good.test"); err != nil {
		t.Fatal(err)
	}
	selfSigned := n.Cert(pki.IssueOptions{Names: []string{"mx.bad.test"},
		NotBefore: time.Now().Add(-time.Hour), NotAfter: time.Now().Add(time.Hour), SelfSigned: true})
	if _, err := n.AddMX(smtpd.Behavior{Certificate: selfSigned}, "mx.bad.test"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"good.test", "bad.test"} {
		tenant := &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400, MXPatterns: []string{"mx." + d}}}
		if d == "bad.test" {
			tenant.HTTPMode = policysrv.HTTPNotFound
		}
		n.AddDomain(loopnet.Domain{Name: d, MX: []string{"mx." + d}, TXT: []string{"v=STSv1; id=20261017;"}, Tenant: tenant})
	}

	check := func(domain string) (string, int) {
		var out bytes.Buffer
		code := run([]string{
			"-dns", n.DNS.Addr().String(),
			"-https-port", strconv.Itoa(n.Policy.Port()),
			"-smtp-port", strconv.Itoa(n.SMTPPort),
			"-ca", caFile, "-timeout", "3s", domain,
		}, &out)
		return out.String(), code
	}
	for _, c := range []struct {
		domain string
		code   int
		lines  []string
	}{
		{"good.test", 0, []string{
			"  record:  OK (id=20261017)",
			"  policy:  OK (mode=enforce, max_age=86400, 1 mx pattern(s))",
			"  mx:      mx.good.test — certificate OK",
			"  match:   MX records match the policy's mx patterns",
			"verdict: OK",
		}},
		{"bad.test", 1, []string{
			"  record:  OK (id=20261017)",
			"  policy:  FAILED at HTTP stage (HTTP 404)",
			"  mx:      mx.bad.test — certificate INVALID (self-signed)",
			"verdict: MISCONFIGURED — categories: [Policy Retrieval MX Hosts Cert.]",
			"  http_status",
			"  self_signed        scanner: mx mx.bad.test certificate: self-signed",
		}},
	} {
		out, code := check(c.domain)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.domain, code, c.code, out)
		}
		have := strings.Split(out, "\n")
		for _, want := range c.lines {
			found := false
			for _, l := range have {
				found = found || l == want
			}
			if !found {
				t.Errorf("%s: no line %q in\n%s", c.domain, want, out)
			}
		}
	}
	var out bytes.Buffer
	if code := run([]string{"good.test"}, &out); code != 2 {
		t.Errorf("missing -dns: exit %d, want 2", code)
	}
}
