// Command mtasts-send delivers a message as a compliant sending MTA:
// DANE-first transport security, MTA-STS enforcement with a durable TOFU
// policy cache, multi-MX failover, and an optional RFC 8460 TLSRPT
// report of the attempt. Message data is read from stdin.
//
// With -cache-dir the policy cache persists across invocations (and
// crashes): a warm domain is served from disk with zero policy fetches,
// and a policy whose refetch fails keeps enforcing until the stale
// window elapses. See docs/SENDER.md for the cache semantics and the
// refresh runbook.
//
// Usage:
//
//	echo "Subject: hi" | mtasts-send -dns 127.0.0.1:5353 \
//	    -from alice@sender.example -to bob@recipient.example \
//	    [-cache-dir /var/lib/mtasts/cache] [-refresh-interval 6h] \
//	    [-smtp-port 25] [-https-port 443] [-ca roots.pem] [-dane] \
//	    [-tlsrpt report.json]
package main

import (
	"context"
	"crypto/x509"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"time"

	"github.com/netsecurelab/mtasts/internal/mta"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

func main() { os.Exit(run()) }

func run() int {
	dnsAddr := flag.String("dns", "", "DNS server address (host:port), required")
	from := flag.String("from", "", "envelope sender address, required")
	to := flag.String("to", "", "recipient address, required")
	smtpPort := flag.Int("smtp-port", 25, "MX SMTP port")
	httpsPort := flag.Int("https-port", 443, "policy server HTTPS port")
	caFile := flag.String("ca", "", "PEM file with trusted roots (default: system roots)")
	daneOn := flag.Bool("dane", false, "enable DANE (TLSA) validation")
	tlsrptOut := flag.String("tlsrpt", "", "write an RFC 8460 report of this attempt to the file")
	timeout := flag.Duration("timeout", 15*time.Second, "per-step timeout")
	cacheDir := flag.String("cache-dir", "", "directory for the durable policy cache (default: in-memory, per-invocation)")
	cacheMax := flag.Int("cache-max", 4096, "maximum cached policy domains")
	refreshInterval := flag.Duration("refresh-interval", 0, "proactively revalidate cached policies expiring within 2x this interval before sending (0 disables)")
	staleWindow := flag.Duration("stale-window", 0, "how long an expired policy may keep serving after a failed refetch (default 24h)")
	flag.Parse()

	if *dnsAddr == "" || *from == "" || *to == "" {
		fmt.Fprintln(os.Stderr, "usage: mtasts-send -dns <host:port> -from <addr> -to <addr> < message")
		flag.Usage()
		return 2
	}
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reading message:", err)
		return 1
	}

	var roots *x509.CertPool
	if *caFile != "" {
		pem, err := os.ReadFile(*caFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reading CA file:", err)
			return 1
		}
		roots = x509.NewCertPool()
		if !roots.AppendCertsFromPEM(pem) {
			fmt.Fprintln(os.Stderr, "no certificates in", *caFile)
			return 1
		}
	}

	var backing store.Store
	if *cacheDir != "" {
		disk, err := store.OpenDisk(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opening policy cache:", err)
			return 1
		}
		backing = disk
	} else {
		backing = store.NewMem()
	}
	reg := obs.NewRegistry()
	cache, err := mtasts.OpenPolicyCache(backing, mtasts.CacheOptions{
		Max: *cacheMax, StaleWindow: *staleWindow, Obs: reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loading policy cache:", err)
		if cerr := backing.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "closing store:", cerr)
		}
		return 1
	}
	defer func() {
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing policy cache:", err)
		}
	}()

	dnsClient := resolver.New(*dnsAddr)
	adapter := scanner.TXTResolverAdapter{Client: dnsClient}
	outbound := &mta.Outbound{
		DNS: dnsClient,
		Validator: &mtasts.Validator{
			Resolver: adapter,
			Fetcher: &mtasts.Fetcher{
				Resolver: adapter,
				Port:     *httpsPort,
				RootCAs:  roots,
				Timeout:  *timeout,
			},
			Cache: cache,
		},
		Roots:       roots,
		HeloName:    "mtasts-send.invalid",
		SMTPPort:    *smtpPort,
		DANEEnabled: *daneOn,
		Timeout:     *timeout,
		Obs:         reg,
	}
	// Resolve MX hosts through -dns, like every other lookup this command
	// makes; an empty return falls back to OS resolution of the MX name.
	outbound.AddrOverride = func(mxHost string) string {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		addrs, err := dnsClient.LookupAddrs(ctx, mxHost, false)
		if err != nil || len(addrs) == 0 {
			return ""
		}
		return net.JoinHostPort(addrs[0].String(), strconv.Itoa(*smtpPort))
	}
	if *tlsrptOut != "" {
		now := time.Now()
		outbound.Report = tlsrpt.NewReport("mtasts-send", "mailto:postmaster@"+mustDomain(*from),
			now.Format("20060102T150405"), now, now.Add(time.Second))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4**timeout)
	defer cancel()

	// Proactive refresh (RFC 8461 §3.3): revalidate soon-to-expire cached
	// policies in place before sending. Long-running deployments call
	// Outbound.RefreshPolicies(ctx, window) from their own scheduler; a
	// one-shot CLI gets one pass.
	if *refreshInterval > 0 {
		refreshed := outbound.RefreshPolicies(ctx, 2**refreshInterval)
		failures := reg.Counter("mta.refresh.failures").Value()
		if refreshed > 0 || failures > 0 {
			fmt.Fprintf(os.Stderr, "policy refresh: revalidated=%d failures=%d\n", refreshed, failures)
		}
	}

	out, err := outbound.Send(ctx, *from, []string{*to}, data)

	if *tlsrptOut != "" && outbound.Report != nil {
		if data, merr := outbound.Report.Marshal(); merr == nil {
			if werr := os.WriteFile(*tlsrptOut, data, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "writing TLSRPT report:", werr)
			}
		}
	}

	s := cache.Stats()
	fmt.Fprintf(os.Stderr, "policy cache: entries=%d hits=%d misses=%d stale_served=%d refresh_failures=%d collapsed=%d\n",
		s.Entries, s.Hits, s.Misses, s.StaleServed, s.RefreshFailures, s.Collapsed)

	if err != nil {
		fmt.Fprintln(os.Stderr, "delivery failed:", err)
		return 1
	}
	fmt.Printf("delivered to %s via %s (TLS=%v, certificate verified=%v)\n",
		out.MXHost, out.Mechanism, out.TLS, out.CertVerified)
	return 0
}

func mustDomain(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == '@' {
			return addr[i+1:]
		}
	}
	return addr
}
