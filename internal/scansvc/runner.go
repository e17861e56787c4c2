package scansvc

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"os"
	"time"

	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/retry"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
)

// RunnerSpec is the CLI-shaped description of a scanner.Runner: worker
// counts as flag values rather than built pools. The commands parse
// flags into a spec and Build turns it into a configured Runner — the
// logic cmd/mtasts-scan and the service previously had to agree on by
// copy.
type RunnerSpec struct {
	// Workers sizes every stage pool StageWorkers leaves unset. 16 if 0.
	Workers int
	// StageWorkers gives per-stage pool sizes
	// ("dns=16,fetch=8,probe=32"); "" or "auto" sizes every stage from
	// Workers.
	StageWorkers string
	// Dedup is ignored: every Runner probes each MX host once per Run.
	// It remains only so existing struct literals still compile.
	Dedup bool
	// RetryBudget is the total retries one built Runner may spend across
	// its Runs (0 = unlimited). Each Build has its own budget, so each
	// service job has its own.
	RetryBudget int64
}

// Build assembles the Runner for one run over the given scanner and
// telemetry. It validates StageWorkers; an invalid spec is a user
// error, reported rather than panicked.
func (sp RunnerSpec) Build(scan scanner.Scanner, reg *obs.Registry, events *obs.EventSink) (*scanner.Runner, error) {
	sw, err := scanner.ParseStageWorkers(sp.StageWorkers)
	if err != nil {
		return nil, err
	}
	workers := sp.Workers
	if workers <= 0 {
		workers = 16
	}
	r := &scanner.Runner{
		Workers: workers, Scan: scan, Obs: reg, Events: events,
		StageWorkers: sw,
	}
	if sp.RetryBudget > 0 {
		r.RetryBudget = retry.NewBudget(sp.RetryBudget)
	}
	return r, nil
}

// LiveSpec is the CLI-shaped description of the live scan stack
// (resolver + rate limit + retries + scanner.Live): the one
// assembler behind cmd/mtasts-scan, cmd/mtasts-check and cmd/mtasts-serve's
// live-socket jobs.
type LiveSpec struct {
	// DNSAddr is the recursive resolver, host:port. Required.
	DNSAddr string
	// Rate caps DNS queries per second (0 = unlimited).
	Rate float64
	// HTTPSPort and SMTPPort default to 443 and 25.
	HTTPSPort int
	SMTPPort  int
	// Timeout is the per-probe timeout (5s if 0).
	Timeout time.Duration
	// Retries is attempts per network operation (1 = no retries);
	// RetryBase the first backoff delay. The retry budget is the
	// Runner's (RunnerSpec.RetryBudget).
	Retries   int
	RetryBase time.Duration
	// CAFile, when non-empty, adds PEM roots to the trust store (e.g.
	// mtasts-host -ca-out).
	CAFile string
	// HeloName is the EHLO identity for SMTP probes.
	HeloName string
}

// Build assembles the live scanner: one resolver, one policy fetcher
// (with an LRU session cache, keyed by policy host, so only a repeat
// fetch of one domain's policy resumes; a scan fetches each once) and
// one SMTP prober, each timing out
// after Timeout (5s if 0). All three draw on the retry budget of the
// Runner that drives them.
func (sp LiveSpec) Build(reg *obs.Registry, events *obs.EventSink) (*scanner.Live, error) {
	if sp.DNSAddr == "" {
		return nil, fmt.Errorf("scansvc: live scan needs a DNS server address")
	}
	var roots *x509.CertPool
	if sp.CAFile != "" {
		pem, err := os.ReadFile(sp.CAFile)
		if err != nil {
			return nil, fmt.Errorf("scansvc: reading CA file: %w", err)
		}
		roots = x509.NewCertPool()
		if !roots.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("scansvc: no certificates found in %s", sp.CAFile)
		}
	}
	dns := resolver.New(sp.DNSAddr)
	dns.QueriesPerSocket = resolver.ScannerQueriesPerSocket
	dns.Obs = reg
	dns.MaxAttempts = sp.Retries
	dns.RetryBase = sp.RetryBase
	if sp.Rate > 0 {
		dns.Limiter = resolver.NewRateLimiter(sp.Rate, 10)
	}
	timeout := sp.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	helo := sp.HeloName
	if helo == "" {
		helo = "mtasts-scan.invalid"
	}
	return &scanner.Live{
		DNS: dns,
		Fetcher: &mtasts.Fetcher{
			Resolver: scanner.TXTResolverAdapter{Client: dns}, RootCAs: roots,
			Port: sp.HTTPSPort, Timeout: timeout, Obs: reg,
			MaxAttempts: sp.Retries, RetryBase: sp.RetryBase,
			SessionCache: tls.NewLRUClientSessionCache(1024),
		},
		Prober: &smtpclient.Prober{
			HeloName: helo, Roots: roots, Port: sp.SMTPPort, Timeout: timeout, Obs: reg,
			MaxAttempts: sp.Retries, RetryBase: sp.RetryBase,
		},
		Obs:    reg,
		Events: events,
	}, nil
}
