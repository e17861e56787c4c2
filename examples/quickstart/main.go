// Quickstart: boot a miniature Internet (authoritative DNS, HTTPS policy
// host, SMTP server with STARTTLS — all on loopback), deploy MTA-STS for
// one domain, and run the full validation pipeline against it with the
// public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	mtastsrepro "github.com/netsecurelab/mtasts"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

func main() {
	const domain = "example.com"
	mxHost := "mx." + domain

	// 1. The loopback Internet: an authoritative DNS server, an HTTPS
	// policy host and a test CA playing the web PKI.
	inet, err := loopnet.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer inet.Close()

	// 2. The MX host: an SMTP server with STARTTLS and a PKIX-valid
	// certificate, on an address of its own.
	if _, err := inet.AddMX(smtpd.Behavior{AcceptMail: true}, mxHost); err != nil {
		log.Fatal(err)
	}

	// 3. The deployment: the MX record, the MTA-STS record, the policy
	// host address, and the well-known policy file behind it.
	inet.AddDomain(loopnet.Domain{
		Name: domain, MX: []string{mxHost}, TXT: []string{"v=STSv1; id=20240929;"},
		Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce,
			MaxAge: 604800, MXPatterns: []string{mxHost},
		}},
	})

	// 4. Validate the deployment end-to-end with the public API.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	result := mtastsrepro.CheckDomain(ctx, domain, mtastsrepro.CheckOptions{
		DNSAddr:   inet.DNS.Addr().String(),
		Roots:     inet.CA.Pool(),
		HTTPSPort: inet.Policy.Port(),
		SMTPPort:  inet.SMTPPort,
	})

	fmt.Println("MTA-STS deployment check for", domain)
	fmt.Printf("  record valid: %v (id=%s)\n", result.RecordValid, result.Record.ID)
	fmt.Printf("  policy:       mode=%s max_age=%d mx=%v\n",
		result.Policy.Mode, result.Policy.MaxAge, result.Policy.MXPatterns)
	for host, problem := range result.MXProblems {
		fmt.Printf("  mx %s: certificate %s\n", host, problem)
	}
	fmt.Printf("  mismatch:     %s\n", result.Mismatch.Kind)
	if result.Misconfigured() {
		fmt.Println("verdict: MISCONFIGURED —", result.Categories())
	} else {
		fmt.Println("verdict: OK — compliant senders will require verified TLS to", mxHost)
	}
}
