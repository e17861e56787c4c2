// Command mtasts-check is a one-domain MTA-STS diagnostic: it runs the
// full scan pipeline against real infrastructure (record discovery, policy
// retrieval with the staged error taxonomy, MX STARTTLS certificate
// checks, and pattern consistency) and prints a human-readable verdict —
// the checker a domain administrator would run after deploying MTA-STS.
//
// Usage:
//
//	mtasts-check -dns 127.0.0.1:5353 [-https-port 443] [-smtp-port 25] [-ca ca.pem] example.com
//
// Without -dns, the system resolver's configured server cannot be used by
// the wire-format client, so a DNS server address is required. The exit
// status is 0 for a healthy (or MTA-STS-less) domain, 1 for a
// misconfigured one and 2 for a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/scansvc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mtasts-check", flag.ContinueOnError)
	dnsAddr := fs.String("dns", "", "DNS server address (host:port), required")
	httpsPort := fs.Int("https-port", 443, "policy server HTTPS port")
	smtpPort := fs.Int("smtp-port", 25, "MX SMTP port")
	timeout := fs.Duration("timeout", 10*time.Second, "per-probe timeout")
	caFile := fs.String("ca", "", "PEM file with extra trusted roots (e.g. mtasts-host -ca-out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || *dnsAddr == "" {
		fmt.Fprintln(os.Stderr, "usage: mtasts-check -dns <host:port> [flags] <domain>")
		fs.Usage()
		return 2
	}
	domain := fs.Arg(0)

	live, err := scansvc.LiveSpec{
		DNSAddr: *dnsAddr, HTTPSPort: *httpsPort, SMTPPort: *smtpPort,
		Timeout: *timeout, CAFile: *caFile, HeloName: "mtasts-check.invalid",
	}.Build(nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-check:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4**timeout)
	defer cancel()
	r := live.ScanDomain(ctx, domain)

	fmt.Fprintf(stdout, "MTA-STS diagnostic for %s\n\n", domain)
	if !r.RecordPresent {
		fmt.Fprintln(stdout, "  record:  not found — MTA-STS is not deployed")
		return 0
	}
	if r.RecordValid {
		fmt.Fprintf(stdout, "  record:  OK (id=%s)\n", r.Record.ID)
	} else {
		fmt.Fprintf(stdout, "  record:  INVALID — %v\n", r.RecordErr)
	}
	if r.PolicyCNAME != "" {
		fmt.Fprintf(stdout, "  delegation: mta-sts.%s -> %s\n", domain, r.PolicyCNAME)
	}
	if r.PolicyOK {
		fmt.Fprintf(stdout, "  policy:  OK (mode=%s, max_age=%d, %d mx pattern(s))\n",
			r.Policy.Mode, r.Policy.MaxAge, len(r.Policy.MXPatterns))
	} else {
		fmt.Fprintf(stdout, "  policy:  FAILED at %s stage", r.PolicyStage)
		if r.PolicyCertProblem.String() != "ok" {
			fmt.Fprintf(stdout, " (certificate: %s)", r.PolicyCertProblem)
		}
		if r.PolicyHTTPStatus != 0 {
			fmt.Fprintf(stdout, " (HTTP %d)", r.PolicyHTTPStatus)
		}
		fmt.Fprintln(stdout)
	}
	if len(r.MXHosts) == 0 {
		fmt.Fprintln(stdout, "  mx:      no MX records")
	}
	for _, mx := range r.MXHosts {
		if p, ok := r.MXProblems[mx]; ok {
			verdict := "OK"
			if !p.Valid() {
				verdict = "INVALID (" + p.String() + ")"
			}
			fmt.Fprintf(stdout, "  mx:      %s — certificate %s\n", mx, verdict)
		} else {
			fmt.Fprintf(stdout, "  mx:      %s — no STARTTLS\n", mx)
		}
	}
	if r.PolicyOK {
		if r.Mismatch.Kind == inconsistency.KindNone {
			fmt.Fprintln(stdout, "  match:   MX records match the policy's mx patterns")
		} else {
			fmt.Fprintf(stdout, "  match:   MISMATCH (%s): patterns %v vs MX %v\n",
				r.Mismatch.Kind, r.Mismatch.Patterns, r.Mismatch.MXHosts)
		}
	}

	fmt.Fprintln(stdout)
	if r.Misconfigured() {
		fmt.Fprintf(stdout, "verdict: MISCONFIGURED — categories: %v\n", r.Categories())
		for _, e := range r.TaxErrors() {
			if msg := e.Error(); msg != string(e.Code) {
				fmt.Fprintf(stdout, "  %-18s %s\n", e.Code, msg)
			} else {
				fmt.Fprintf(stdout, "  %s\n", e.Code)
			}
		}
		if r.DeliveryFailure() {
			fmt.Fprintln(stdout, "WARNING: compliant senders will REFUSE to deliver mail to this domain")
		}
		return 1
	}
	fmt.Fprintln(stdout, "verdict: OK")
	return 0
}
