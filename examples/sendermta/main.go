// Sender MTA: a compliant sending mail server enforcing MTA-STS. The
// example provisions a recipient domain with an enforce policy, delivers a
// message through the full pipeline (record discovery → policy fetch over
// HTTPS → MX matching → STARTTLS with certificate verification → SMTP
// delivery), and then demonstrates the attack MTA-STS exists to stop: a
// DNS-poisoning adversary redirecting MX resolution to a rogue host. The
// cached enforce policy makes the sender refuse.
//
//	go run ./examples/sendermta
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// sendingMTA bundles the components a compliant sender runs: a DNS client,
// the MTA-STS validator with its TOFU cache, and the delivering SMTP
// client.
type sendingMTA struct {
	dns       *resolver.Client
	validator *mtasts.Validator
	inet      *loopnet.Net // trust store and MX dial addresses of the lab
}

// send delivers one message to the recipient domain, enforcing MTA-STS.
func (m *sendingMTA) send(ctx context.Context, domain, from, to string, body []byte) error {
	mxs, err := m.dns.LookupMX(ctx, domain)
	if err != nil || len(mxs) == 0 {
		return fmt.Errorf("no MX for %s: %v", domain, err)
	}
	mxHost := mxs[0].Host

	ev := m.validator.Validate(ctx, domain, mxHost)
	fmt.Printf("  policy evaluation: record=%v policy=%v (cache=%v) mx-match=%v action=%s\n",
		ev.RecordFound, ev.PolicyFetched, ev.PolicyFromCache, ev.MXMatched, ev.Action)
	if ev.Action == mtasts.ActionRefuse {
		return fmt.Errorf("MTA-STS enforce policy forbids delivery via %s", mxHost)
	}

	sender := &smtpclient.Sender{
		HeloName:     "sender.lab",
		Roots:        m.inet.CA.Pool(),
		RequireTLS:   ev.PolicyFetched && ev.Policy.Mode == mtasts.ModeEnforce,
		Timeout:      5 * time.Second,
		AddrOverride: m.inet.DialAddr(mxHost),
	}
	res, err := sender.Deliver(ctx, mxHost, from, []string{to}, body)
	if err != nil {
		return err
	}
	fmt.Printf("  delivered via %s (TLS=%v, certificate verified=%v)\n", mxHost, res.TLS, res.CertVerified)
	return nil
}

func main() {
	const domain = "recipient.com"
	const goodMX, rogueMX = "mx." + domain, "mx.attacker.net"

	inet, err := loopnet.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer inet.Close()

	// The legitimate MX with a valid certificate, and an
	// attacker-controlled MX with a self-signed one.
	mx, err := inet.AddMX(smtpd.Behavior{AcceptMail: true}, goodMX)
	if err != nil {
		log.Fatal(err)
	}
	rogueCert := inet.Cert(pki.IssueOptions{Names: []string{rogueMX}, SelfSigned: true})
	rogue, err := inet.AddMX(smtpd.Behavior{Certificate: rogueCert, AcceptMail: true}, rogueMX)
	if err != nil {
		log.Fatal(err)
	}

	// The recipient's MTA-STS deployment.
	inet.AddDomain(loopnet.Domain{
		Name: domain, MX: []string{goodMX}, TXT: []string{"v=STSv1; id=20240929;"},
		Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce,
			MaxAge: 86400, MXPatterns: []string{goodMX},
		}},
	})

	// The sending MTA.
	dnsClient := resolver.New(inet.DNS.Addr().String())
	adapter := scanner.TXTResolverAdapter{Client: dnsClient}
	mta := &sendingMTA{
		dns:  dnsClient,
		inet: inet,
		validator: &mtasts.Validator{
			Resolver: adapter,
			Fetcher: &mtasts.Fetcher{
				Resolver: adapter,
				RootCAs:  inet.CA.Pool(),
				Port:     inet.Policy.Port(),
				Timeout:  5 * time.Second,
			},
			Cache: mtasts.NewPolicyCache(64),
		},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	fmt.Println("[1] normal delivery to", domain)
	if err := mta.send(ctx, domain, "alice@sender.lab", "bob@"+domain, []byte("Subject: hi\n\nhello over verified TLS\n")); err != nil {
		log.Fatal("unexpected failure: ", err)
	}
	fmt.Printf("  recipient inbox now holds %d message(s)\n\n", len(mx.Messages()))

	fmt.Println("[2] DNS-poisoning attack: MX redirected to mx.attacker.net")
	inet.Zone(domain).Remove(domain, dnsmsg.TypeMX)
	inet.AddDomain(loopnet.Domain{Name: domain, MX: []string{rogueMX}})
	dnsClient.Cache.Flush()

	err = mta.send(ctx, domain, "alice@sender.lab", "bob@"+domain, []byte("Subject: secret\n\nintercept me\n"))
	if err == nil {
		log.Fatal("attack was NOT stopped — message delivered to the rogue MX")
	}
	fmt.Println("  delivery refused:", err)
	fmt.Printf("  rogue MX received %d message(s) — the downgrade attack failed\n", len(rogue.Messages()))
}
