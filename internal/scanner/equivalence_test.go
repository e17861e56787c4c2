package scanner

import (
	"context"
	"fmt"
	"testing"

	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
)

// TestLiveOfflineEquivalence pins the central substitution claim of the
// reproduction over the whole defect table (the kinds bench/world.go
// generates) and over co-occurring defects: for every row, scanning real
// sockets (Live, one domain at a time and through the Runner, which
// probes the shared MX once) and evaluating materialized artifacts
// (ScanArtifacts) produce the same ClassificationKey. Each case is ONE
// Artifacts value, served on the loopback Internet by serve
// and handed as is to ScanArtifacts; all domains live in one world, on
// one SMTP port, and two of them share an MX host.
func TestLiveOfflineEquivalence(t *testing.T) {
	const sharedMX = "mx.shared-provider.com"
	cases := []struct {
		name string
		// shared puts the domain on sharedMX instead of an MX of its own.
		shared bool
		// defect breaks the healthy deployment in one place.
		defect func(a *Artifacts, mx string)
	}{
		{name: "clean", shared: true},
		{name: "bad record id", defect: func(a *Artifacts, _ string) {
			a.TXT = []string{"v=STSv1; id=bad-id;"}
		}},
		{name: "policy host unresolvable", defect: func(a *Artifacts, _ string) {
			a.PolicyHostResolves = false
		}},
		{name: "policy TLS wrong name", defect: func(a *Artifacts, _ string) {
			a.PolicyCert = pki.GoodProfile(liveNow, a.Domain)
		}},
		{name: "policy HTTP 404", defect: func(a *Artifacts, _ string) {
			a.HTTPStatus = 404
		}},
		{name: "empty policy", defect: func(a *Artifacts, _ string) {
			a.PolicyBody = nil
		}},
		{name: "mx pattern mismatch", defect: func(a *Artifacts, _ string) {
			a.PolicyBody = []byte(enforceFor("mx.formerhost.net").String())
		}},
		{name: "policy TLS self-signed", defect: func(a *Artifacts, _ string) {
			a.PolicyCert = pki.SelfSignedProfile(liveNow, mtasts.PolicyHost(a.Domain))
		}},
		{name: "policy TLS expired", defect: func(a *Artifacts, _ string) {
			a.PolicyCert = pki.ExpiredProfile(liveNow, mtasts.PolicyHost(a.Domain))
		}},
		{name: "policy TLS no certificate", defect: func(a *Artifacts, _ string) {
			a.PolicyCert = pki.MissingProfile()
		}},
		{name: "policy port closed", defect: func(a *Artifacts, _ string) {
			a.TCPOpen = false
		}},
		{name: "policy HTTP 500", shared: true, defect: func(a *Artifacts, _ string) {
			a.HTTPStatus = 500
		}},
		{name: "policy HTTP 301", defect: func(a *Artifacts, _ string) {
			a.HTTPStatus = 301
		}},
		{name: "garbage policy", defect: func(a *Artifacts, _ string) {
			a.PolicyBody = []byte("<html><body>It works!</body></html>\n")
		}},
		{name: "mx cert name mismatch", defect: func(a *Artifacts, mx string) {
			a.MXCerts[mx] = pki.GoodProfile(liveNow, "*.other-provider.com")
		}},
		{name: "mx cert self-signed", defect: func(a *Artifacts, mx string) {
			a.MXCerts[mx] = pki.SelfSignedProfile(liveNow, mx)
		}},
		{name: "mx cert expired", defect: func(a *Artifacts, mx string) {
			a.MXCerts[mx] = pki.ExpiredProfile(liveNow, mx)
		}},
		{name: "mx without STARTTLS", defect: func(a *Artifacts, mx string) {
			a.MXSTARTTLS[mx] = false
			delete(a.MXCerts, mx)
		}},
		// Co-occurring defects: the paper's Figure 4 categories overlap.
		{name: "policy TLS expired + mx without STARTTLS", defect: func(a *Artifacts, mx string) {
			a.PolicyCert = pki.ExpiredProfile(liveNow, mtasts.PolicyHost(a.Domain))
			a.MXSTARTTLS[mx] = false
			delete(a.MXCerts, mx)
		}},
		{name: "bad record id + policy HTTP 404", defect: func(a *Artifacts, _ string) {
			a.TXT = []string{"v=STSv1; id=bad-id;"}
			a.HTTPStatus = 404
		}},
		{name: "mx pattern mismatch + mx cert self-signed", defect: func(a *Artifacts, mx string) {
			a.PolicyBody = []byte(enforceFor("mx.formerhost.net").String())
			a.MXCerts[mx] = pki.SelfSignedProfile(liveNow, mx)
		}},
		{name: "two MXes, one expired, one wrong name", defect: func(a *Artifacts, mx string) {
			mx2 := "mx2." + a.Domain
			a.MXHosts = append(a.MXHosts, mx2)
			a.PolicyBody = []byte(enforceFor(mx, mx2).String())
			a.MXSTARTTLS[mx2] = true
			a.MXCerts[mx] = pki.ExpiredProfile(liveNow, mx)
			a.MXCerts[mx2] = pki.GoodProfile(liveNow, "*.other-provider.com")
		}},
		{name: "garbage policy + mx cert expired", defect: func(a *Artifacts, mx string) {
			a.PolicyBody = []byte("<html><body>It works!</body></html>\n")
			a.MXCerts[mx] = pki.ExpiredProfile(liveNow, mx)
		}},
		{name: "policy host unresolvable + mx without STARTTLS", defect: func(a *Artifacts, mx string) {
			a.PolicyHostResolves = false
			a.MXSTARTTLS[mx] = false
			delete(a.MXCerts, mx)
		}},
		{name: "bad record + policy TLS wrong name + two bad MXes", defect: func(a *Artifacts, mx string) {
			a.TXT = []string{"v=STSv1; id=bad-id;"}
			a.PolicyCert = pki.GoodProfile(liveNow, a.Domain)
			mx2 := "mx2." + a.Domain
			a.MXHosts = append(a.MXHosts, mx2)
			a.MXSTARTTLS[mx2] = false
			a.MXCerts[mx] = pki.SelfSignedProfile(liveNow, mx)
		}},
	}

	n, live := liveNet(t)
	arts := make([]Artifacts, len(cases))
	domains := make([]string, len(cases))
	for i, c := range cases {
		domains[i] = fmt.Sprintf("eq%02d.com", i)
		mx := "mx." + domains[i]
		if c.shared {
			mx = sharedMX
		}
		arts[i] = liveArtifacts(domains[i], mx)
		if c.defect != nil {
			c.defect(&arts[i], mx)
		}
		serve(t, n, arts[i])
	}
	staged := make(map[string]DomainResult, len(cases))
	for _, r := range (&Runner{Workers: 4, Scan: live}).Run(context.Background(), domains) {
		staged[r.Domain] = r
	}

	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			off := ScanArtifacts(arts[i], liveNow)
			if off.PolicyStage != mtasts.StageHTTP {
				// The one documented divergence (bench/README.md): the live
				// fetcher reports a status only for HTTP-stage failures,
				// the offline pipeline records the 200 it was shown.
				off.PolicyHTTPStatus = 0
			}
			want := off.ClassificationKey()
			sequential := live.ScanDomain(context.Background(), domains[i])
			if got := sequential.ClassificationKey(); got != want {
				t.Errorf("Live.ScanDomain ≠ ScanArtifacts\n live:    %s\n offline: %s", got, want)
			}
			r := staged[domains[i]]
			if got := r.ClassificationKey(); got != want {
				t.Errorf("Runner.Run ≠ ScanArtifacts\n live:    %s\n offline: %s", got, want)
			}
		})
	}
}
