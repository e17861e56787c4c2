package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/dane"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mta"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/sendertest"
	"github.com/netsecurelab/mtasts/internal/smtpd"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// buildRecipientWorld provisions a loopback world realizing one
// sendertest.RecipientConfig exactly: STARTTLS support, certificate
// validity, TLSA records (matching or not), and MTA-STS record + policy
// with patterns that do or do not cover the MX.
func buildRecipientWorld(t *testing.T, rc sendertest.RecipientConfig) *adversaryWorld {
	t.Helper()
	inet, err := loopnet.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := inet.Close(); err != nil {
			t.Errorf("world close: %v", err)
		}
	})
	w := &adversaryWorld{net: inet}

	// MX certificate: CA-issued when the config claims PKIX validity,
	// self-signed otherwise.
	cert := inet.Cert(pki.IssueOptions{Names: []string{victimMX}, SelfSigned: !rc.CertPKIXValid})
	if _, err := inet.AddMX(smtpd.Behavior{Certificate: cert,
		DisableSTARTTLS: !rc.OffersSTARTTLS, AcceptMail: true}, victimMX); err != nil {
		t.Fatal(err)
	}
	if rc.DANE {
		pinned := cert
		if !rc.TLSAMatches {
			pinned = inet.Cert(pki.IssueOptions{Names: []string{victimMX}}) // a decoy
		}
		inet.Zone(victimMX).MustAdd(dane.NewEE3(pinned.Leaf).RR(victimMX, 300))
	}

	d := loopnet.Domain{Name: victimDomain, MX: []string{victimMX}}
	if rc.MTASTS {
		patterns := []string{victimMX}
		if !rc.MXMatchesPolicy {
			patterns = []string{"mx.other.test"}
		}
		d.TXT = []string{"v=STSv1; id=20260801;"}
		d.Tenant = &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.Mode(rc.MTASTSMode),
			MaxAge: 86400, MXPatterns: patterns,
		}}
	}
	inet.AddDomain(d)
	return w
}

// allBehaviors enumerates every combination of the five Behavior flags.
func allBehaviors() []sendertest.Behavior {
	var out []sendertest.Behavior
	for mask := 0; mask < 32; mask++ {
		out = append(out, sendertest.Behavior{
			Domain:                fmt.Sprintf("combo%02d", mask),
			SupportsTLS:           mask&1 != 0,
			ValidatesMTASTS:       mask&2 != 0,
			ValidatesDANE:         mask&4 != 0,
			PrefersMTASTSOverDANE: mask&8 != 0,
			RequirePKIXAlways:     mask&16 != 0,
		})
	}
	return out
}

// TestSenderRecipientCrossProduct drives every Behavior flag combination
// against every RecipientConfig in the platform set through the REAL
// delivery path and asserts the sendertest model's Outcome cell by cell.
// This is the drift guard: the modeled §6 decision matrix and the live
// mta.Outbound engine must agree everywhere.
func TestSenderRecipientCrossProduct(t *testing.T) {
	t.Parallel()
	behaviors := allBehaviors()
	for _, rc := range sendertest.PlatformConfigs() {
		rc := rc
		t.Run(rc.Name, func(t *testing.T) {
			w := buildRecipientWorld(t, rc)
			for _, b := range behaviors {
				model := b.Deliver(rc)
				start := time.Now()
				report := tlsrpt.NewReport("Cross-Product Lab", "mailto:sec@lab.test",
					rc.Name+"-"+b.Domain, start, start.Add(time.Hour))
				o := w.outboundFor(b, report, 300*time.Millisecond)
				out, err := o.Send(context.Background(),
					"a@sender.lab", []string{"b@" + victimDomain}, []byte("probe\r\n"))

				id := fmt.Sprintf("%s vs %s (tls=%v sts=%v dane=%v flip=%v pkix=%v)",
					b.Domain, rc.Name, b.SupportsTLS, b.ValidatesMTASTS, b.ValidatesDANE,
					b.PrefersMTASTSOverDANE, b.RequirePKIXAlways)
				if model.Refused {
					if err == nil {
						t.Errorf("%s: delivered, model says refuse (mech %s)", id, model.Validated)
						continue
					}
					if !errors.Is(err, mta.ErrPolicyRefused) {
						t.Errorf("%s: refusal not ErrPolicyRefused: %v", id, err)
					}
					continue
				}
				if err != nil || !out.Delivered {
					t.Errorf("%s: model says deliver, got err=%v", id, err)
					continue
				}
				if out.TLS != model.UsedTLS {
					t.Errorf("%s: TLS=%v, model says %v", id, out.TLS, model.UsedTLS)
				}
				if got, want := out.Mechanism.String(), mechLabel(model.Validated); got != want {
					t.Errorf("%s: mechanism %s, model says %s", id, got, want)
				}
			}
		})
	}
}
