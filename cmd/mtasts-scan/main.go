// Command mtasts-scan runs the paper's measurement pipeline over a list of
// domains (one per line on stdin or from -domains), using the live scanner
// against real sockets, and prints a per-domain TSV plus the aggregate
// summary — the §4.2 snapshot for an arbitrary population.
//
// With -metrics-addr it serves live JSON metrics (/metrics) and scan
// progress (/debug/scanprogress) while the scan runs; with -events-out it
// appends one JSONL event per scanned domain for post-hoc analysis. Both
// default off, in which case the scan pays no observability cost beyond
// nil checks. An end-of-run metric summary is printed to stderr whenever
// either flag is set.
//
// Usage:
//
//	mtasts-scan -dns 127.0.0.1:5353 [-workers 16] [-rate 100] [-ca ca.pem]
//	            [-retries 3] [-retry-base 100ms] [-retry-budget 10000]
//	            [-metrics-addr 127.0.0.1:9090] [-events-out scan.jsonl] < domains.txt
//
// With -retries above 1, transient failures (DNS timeouts and SERVFAILs,
// torn connections, HTTP 5xx) are retried with exponential backoff before
// a verdict is recorded — the paper's re-scan methodology, see
// docs/ROBUSTNESS.md. Persistent verdicts (NXDOMAIN, certificate
// validation failures, policy syntax errors) are never retried.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/report"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
)

func main() {
	dnsAddr := flag.String("dns", "", "DNS server address (host:port), required")
	domainsFile := flag.String("domains", "-", "domain list file ('-' for stdin)")
	workers := flag.Int("workers", 16, "workers per scan stage (DNS, policy fetch, MX probe)")
	stageWorkersSpec := flag.String("stage-workers", "",
		"per-stage pool sizes (\"dns=16,fetch=8,probe=32\"; \"\" or \"auto\" sizes every stage from -workers)")
	rate := flag.Float64("rate", 100, "DNS queries per second (0 = unlimited)")
	httpsPort := flag.Int("https-port", 443, "policy server HTTPS port")
	smtpPort := flag.Int("smtp-port", 25, "MX SMTP port")
	timeout := flag.Duration("timeout", 10*time.Second, "per-probe timeout")
	retries := flag.Int("retries", 1, "attempts per network operation (1 = no retries)")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "first retry backoff delay")
	retryBudget := flag.Int64("retry-budget", 0, "total retries allowed across the run (0 = unlimited)")
	caFile := flag.String("ca", "", "PEM file with extra trusted roots (e.g. mtasts-host -ca-out)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics and /debug/scanprogress on this host:port while scanning")
	eventsOut := flag.String("events-out", "", "append JSONL scan events to this file")
	flag.Parse()

	if *dnsAddr == "" {
		fmt.Fprintln(os.Stderr, "usage: mtasts-scan -dns <host:port> [flags] < domains.txt")
		flag.Usage()
		os.Exit(2)
	}

	domains, err := readDomains(*domainsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reading domains:", err)
		os.Exit(1)
	}

	// Observability is on whenever either flag asks for it; otherwise the
	// registry stays nil and the pipeline pays only nil checks
	// (scansvc.StartTelemetry, shared with reproduce and mtasts-serve).
	tel, err := scansvc.StartTelemetry(scansvc.TelemetryConfig{
		MetricsAddr: *metricsAddr, EventsPath: *eventsOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tel.Close()
	if tel.Server != nil {
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics  progress: http://%s/debug/scanprogress\n",
			tel.Server.Addr(), tel.Server.Addr())
	}

	live, err := scansvc.LiveSpec{
		DNSAddr:   *dnsAddr,
		Rate:      *rate,
		HTTPSPort: *httpsPort,
		SMTPPort:  *smtpPort,
		Timeout:   *timeout,
		Retries:   *retries,
		RetryBase: *retryBase,
		CAFile:    *caFile,
	}.Build(tel.Obs, tel.Events)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runner, err := scansvc.RunnerSpec{
		Workers: *workers, StageWorkers: *stageWorkersSpec, RetryBudget: *retryBudget,
	}.Build(live, tel.Obs, tel.Events)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	results := runner.Run(context.Background(), domains)

	tbl := &dataset.Table{Headers: []string{
		"domain", "record", "policy", "policy_stage", "mode", "mx_invalid", "mismatch", "delivery_failure",
	}}
	for i := range results {
		r := &results[i]
		if !r.RecordPresent {
			continue
		}
		record := "ok"
		if !r.RecordValid {
			record = "invalid"
		}
		policy, stage := "ok", ""
		if !r.PolicyOK {
			policy, stage = "failed", r.PolicyStage.String()
		}
		invalid := 0
		for _, p := range r.MXProblems {
			if !p.Valid() {
				invalid++
			}
		}
		mismatch := ""
		if r.Mismatch.Kind != inconsistency.KindNone {
			mismatch = r.Mismatch.Kind.String()
		}
		tbl.AddRow(r.Domain, record, policy, stage, string(r.Policy.Mode),
			invalid, mismatch, r.DeliveryFailure())
	}
	if err := tbl.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "writing results:", err)
		os.Exit(1)
	}

	s := scanner.Summarize(results)
	fmt.Fprintln(os.Stderr)
	sum := &dataset.Table{Title: "Scan summary", Headers: []string{"metric", "count"}}
	sum.AddRow("domains scanned", s.Total)
	if s.Canceled > 0 {
		sum.AddRow("canceled (no verdict)", s.Canceled)
	}
	sum.AddRow("with MTA-STS record", s.WithRecord)
	sum.AddRow("misconfigured", s.Misconfigured)
	for cat := scanner.CategoryDNSRecord; cat <= scanner.CategoryInconsistency; cat++ {
		if n := s.ByCategory[cat]; n > 0 {
			sum.AddRow("  "+cat.String(), n)
		}
	}
	sum.AddRow("delivery failures", s.DeliveryFailures)
	if *retries > 1 {
		var rets, rec, gave int64
		for i := range results {
			rets += results[i].Retries
			rec += results[i].RetryRecovered
			gave += results[i].RetryGaveUp
		}
		sum.AddRow("retries", rets)
		sum.AddRow("retry recovered", rec)
		sum.AddRow("retry gave up", gave)
		if b := runner.RetryBudget; b != nil {
			sum.AddRow("retry budget left", b.Remaining())
		}
	}
	report.WriteTable(os.Stderr, sum)

	if len(s.ByCode) > 0 {
		fmt.Fprintln(os.Stderr)
		report.WriteTable(os.Stderr, report.ErrorTaxonomyTable(
			"Error taxonomy (domains per code, docs/ERRORS.md)", s.ByCode))
	}

	if tel.Obs != nil {
		fmt.Fprintln(os.Stderr)
		tel.WriteSummary(os.Stderr)
	}
}

func readDomains(path string) ([]string, error) {
	var r *bufio.Scanner
	if path == "-" {
		r = bufio.NewScanner(os.Stdin)
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = bufio.NewScanner(f)
	}
	var out []string
	for r.Scan() {
		d := strings.TrimSpace(r.Text())
		if d != "" && !strings.HasPrefix(d, "#") {
			out = append(out, d)
		}
	}
	return out, r.Err()
}
