// DANE first: the precedence rule §6.2 of the paper found violated in the
// wild (62 sender domains prefer MTA-STS over DANE, a known milter bug).
// This example signs the recipient zone with real DNSSEC, publishes both a
// TLSA record and an MTA-STS enforce policy, and shows that a compliant
// sender (1) delivers via DANE even though the MX certificate fails web-PKI
// validation, and (2) refuses on a TLSA mismatch even though MTA-STS alone
// would have allowed delivery — DANE must not be overridden.
//
//	go run ./examples/danefirst
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/netsecurelab/mtasts/internal/dane"
	"github.com/netsecurelab/mtasts/internal/dnssec"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mta"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

func main() {
	const domain = "secure.example"
	mxHost := "mx." + domain

	inet, err := loopnet.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer inet.Close()

	// The MX presents a SELF-SIGNED certificate: web PKI (and therefore
	// MTA-STS) rejects it, but the TLSA record pins exactly this key.
	cert := inet.Cert(pki.IssueOptions{Names: []string{mxHost}, SelfSigned: true})
	mx, err := inet.AddMX(smtpd.Behavior{Certificate: cert, AcceptMail: true}, mxHost)
	if err != nil {
		log.Fatal(err)
	}

	// Recipient zone: MX, MTA-STS record and policy (it authorizes the MX,
	// mode enforce), TLSA record — then sign it.
	inet.AddDomain(loopnet.Domain{
		Name: domain, MX: []string{mxHost}, TXT: []string{"v=STSv1; id=20240929;"},
		Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400,
			MXPatterns: []string{mxHost},
		}},
	})
	zone := inet.Zone(domain)
	zone.MustAdd(dane.NewEE3(cert.Leaf).RR(mxHost, 300))

	signer, err := dnssec.NewSigner(zone.Origin())
	if err != nil {
		log.Fatal(err)
	}
	now := time.Now()
	if _, err := dnssec.SignZone(zone, signer, now.Add(-time.Hour), now.Add(24*time.Hour)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("zone 'example' signed (ECDSA P-256); trust anchor:", signer.DS().Data)

	// A compliant outbound MTA with a chain-validating resolver.
	dnsClient := resolver.New(inet.DNS.Addr().String())
	validator := dnssec.NewValidator(dnsClient)
	if err := validator.AddAnchor(signer.DS()); err != nil {
		log.Fatal(err)
	}
	adapter := scanner.TXTResolverAdapter{Client: dnsClient}
	outbound := &mta.Outbound{
		DNS: dnsClient,
		Validator: &mtasts.Validator{
			Resolver: adapter,
			Fetcher: &mtasts.Fetcher{
				Resolver: adapter,
				RootCAs:  inet.CA.Pool(), Port: inet.Policy.Port(), Timeout: 5 * time.Second,
			},
			Cache: mtasts.NewPolicyCache(16),
		},
		Roots:        inet.CA.Pool(),
		HeloName:     "danefirst.lab",
		AddrOverride: inet.DialAddr,
		DANEEnabled:  true,
		DNSSEC:       validator,
		Timeout:      5 * time.Second,
	}
	ctx := context.Background()

	fmt.Println("\n[1] MX cert is self-signed (web PKI would refuse); TLSA pins it")
	out, err := outbound.Send(ctx, "a@sender.lab", []string{"b@" + domain}, []byte("Subject: dane\n\nvia DANE\n"))
	if err != nil {
		log.Fatal("delivery failed: ", err)
	}
	fmt.Printf("    delivered via %s (mechanism=%s, cert verified by TLSA=%v)\n",
		out.MXHost, out.Mechanism, out.CertVerified)

	fmt.Println("\n[2] attacker swaps the MX key; TLSA no longer matches")
	rogueCert := inet.Cert(pki.IssueOptions{Names: []string{mxHost}, SelfSigned: true})
	mx.SetBehavior(smtpd.Behavior{Certificate: rogueCert, AcceptMail: true})
	dnsClient.Cache.Flush()

	_, err = outbound.Send(ctx, "a@sender.lab", []string{"b@" + domain}, []byte("Subject: mitm\n\nintercept\n"))
	if err == nil {
		log.Fatal("delivery succeeded despite TLSA mismatch")
	}
	fmt.Println("    delivery refused:", err)
	fmt.Println("    MTA-STS was never consulted: DANE takes precedence and must not be overridden")
}
