package scanner

import (
	"context"
	"errors"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/retry"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
)

// Live scans real infrastructure: DNS over UDP/TCP, the policy file over
// HTTPS, and each MX over SMTP with STARTTLS. Pointed at the substrate
// servers it exercises the exact sockets and state machines a real scan
// would. Live is its clients: each is configured once (trust store,
// port, timeout, retries) and serves every domain, which is what lets
// the fetcher's TLS sessions resume and the Runner share one probe per
// MX host across domains. scansvc.LiveSpec.Build assembles the
// production stack.
type Live struct {
	// DNS answers every record lookup and resolves each MX host.
	DNS *resolver.Client
	// Fetcher retrieves and parses each domain's policy.
	Fetcher *mtasts.Fetcher
	// Prober runs the STARTTLS probe against each MX host's first
	// address, on Prober.Port (25 when zero).
	Prober *smtpclient.Prober
	// Obs, when non-nil, receives per-stage timings (scan.{mx_lookup,
	// record_lookup,policy_fetch,mx_probe}.seconds) and the error-taxonomy
	// counters of Figures 4–6 — scan.policy.stage_errors.<stage> keyed by
	// mtasts.Stage and scan.mx.cert.<problem> keyed by pki.Problem. The
	// clients carry registries of their own.
	Obs *obs.Registry
	// Events, when non-nil, receives one "scan.domain" JSONL event per
	// scanned domain for post-hoc analysis.
	Events *obs.EventSink

	errTaxOnce sync.Once
}

// registerErrTaxCounters pre-registers one scan.error.<code> counter per
// registered taxonomy code, so a metrics snapshot always shows the full
// taxonomy — zeros included — instead of only the codes that happened to
// fire.
func (l *Live) registerErrTaxCounters() {
	l.errTaxOnce.Do(func() {
		for _, code := range errtax.Codes() {
			// Report-ingestion codes live on the service's TLSRPT
			// endpoint and can never appear on a scan result.
			if in, ok := errtax.Lookup(code); ok && in.Layer == errtax.LayerReport {
				continue
			}
			l.Obs.Counter("scan.error." + string(code))
		}
	})
}

// ScanDomain runs the full §4.1 pipeline for one domain, timing each
// stage and counting its outcome against Obs, and emitting one
// "scan.domain" event to Events.
func (l *Live) ScanDomain(ctx context.Context, domain string) DomainResult {
	sp := l.Obs.StartSpan("scan.domain")
	// Every retry loop under this context (resolver, fetcher, prober)
	// feeds the same per-domain stats.
	ctx, stats := retry.WithStats(ctx)
	r := scanStages(ctx, l, domain, l.Obs)
	finish(l, &r, stats, sp.End())
	return r
}

// Discover implements StageScanner: the DNS stage — MX records, the
// MTA-STS TXT record, and the policy-host delegation CNAME. done means
// the fetch and probe stages must be skipped: either the domain has no
// MTA-STS record at all, or a DNS failure precluded the policy fetch.
func (l *Live) Discover(ctx context.Context, domain string) (DomainResult, bool) {
	r := DomainResult{Domain: domain, MXProblems: make(map[string]pki.Problem)}

	// MX records. NXDOMAIN/NODATA means "no MX" (still scannable);
	// anything else is a lookup failure worth surfacing — the probe and
	// consistency stages run on an empty MX set.
	mxSpan := l.Obs.StartSpan("scan.mx_lookup")
	mxs, err := l.DNS.LookupMX(ctx, domain)
	switch {
	case err == nil:
		for _, mx := range mxs {
			r.MXHosts = append(r.MXHosts, mx.Host)
		}
	case !resolver.IsNotFound(err):
		r.MXLookupErr = err
	}
	mxSpan.EndErr(r.MXLookupErr)

	// MTA-STS record.
	recSpan := l.Obs.StartSpan("scan.record_lookup")
	txts, err := l.DNS.LookupTXT(ctx, "_mta-sts."+domain)
	if err != nil && !resolver.IsNotFound(err) {
		recSpan.EndErr(err)
		r.RecordPresent = true
		r.RecordErr = err
		// DNS failure on the record lookup also precludes policy fetch.
		r.PolicyStage = mtasts.StageDNS
		return r, true
	}
	if !applyRecord(&r, txts) {
		// "No record" is the common case at Internet scale, not a lookup
		// error — don't count it in scan.record_lookup.errors.
		recSpan.End()
		return r, true
	}
	recSpan.EndErr(r.RecordErr)

	// Policy host delegation (for provider attribution).
	if target, err := l.DNS.LookupCNAME(ctx, mtasts.PolicyHost(domain)); err == nil {
		r.PolicyCNAME = target
	}
	return r, false
}

// FetchPolicy implements StageScanner: the policy-retrieval stage. It
// depends only on scan-global configuration plus the domain, so the
// Runner may share its outcome between concurrent scans of the same
// domain.
func (l *Live) FetchPolicy(ctx context.Context, domain string) FetchOutcome {
	fetchSpan := l.Obs.StartSpan("scan.policy_fetch")
	policy, _, fetchErr := l.Fetcher.Fetch(ctx, domain)
	fetchSpan.EndErr(fetchErr)
	if fetchErr == nil {
		return FetchOutcome{OK: true, Policy: policy}
	}
	out := FetchOutcome{
		Stage:       mtasts.StageOf(fetchErr),
		CertProblem: mtasts.CertProblemOf(fetchErr),
	}
	var fe *mtasts.FetchError
	if errors.As(fetchErr, &fe) {
		out.HTTPStatus = fe.HTTPStatus
		if fe.Stage == mtasts.StageSyntax {
			out.SyntaxErr = fe.Err
		}
	}
	return out
}

// Finalize implements StageScanner: the consistency verdict (§4.4)
// needs both the served policy and the MX set, so it runs once every
// stage is done; it then materializes the typed error taxonomy, feeds
// the error-taxonomy counters, and emits the per-domain scan event.
func (l *Live) Finalize(r *DomainResult, took time.Duration) {
	r.verdict()
	l.recordOutcome(r, took)
}

// recordOutcome translates one DomainResult into the error-taxonomy
// counters and the per-domain scan event.
func (l *Live) recordOutcome(r *DomainResult, took time.Duration) {
	if l.Obs.Enabled() {
		o := l.Obs
		o.Counter("scan.domains.total").Inc()
		// scan.mx_lookup.errors is maintained by the scan.mx_lookup span
		// (EndErr) — not incremented again here.
		if r.RecordPresent {
			o.Counter("scan.record.present").Inc()
			if !r.RecordValid {
				o.Counter("scan.record.invalid").Inc()
			}
			if r.PolicyOK {
				o.Counter("scan.policy.ok").Inc()
			} else if r.PolicyStage != mtasts.StageNone {
				o.Counter("scan.policy.stage_errors." + r.PolicyStage.Key()).Inc()
				if r.PolicyStage == mtasts.StageTLS {
					o.Counter("scan.policy.cert." + r.PolicyCertProblem.String()).Inc()
				}
			}
		}
		for _, p := range r.MXProblems {
			o.Counter("scan.mx.cert." + p.String()).Inc()
		}
		o.Counter("scan.mx.probed").Add(int64(len(r.MXProblems)))
		o.Counter("scan.mx.no_starttls").Add(int64(len(r.MXNoSTARTTLS)))
		if r.PolicyOK && r.Mismatch.Kind != inconsistency.KindNone {
			o.Counter("scan.mismatch.total").Inc()
		}
		l.registerErrTaxCounters()
		for i := range r.Errors {
			o.Counter("scan.error." + string(r.Errors[i].Code)).Inc()
		}
		for _, c := range r.Categories() {
			o.Counter("scan.category." + c.Key()).Inc()
		}
		if r.DeliveryFailure() {
			o.Counter("scan.delivery_failures").Inc()
		}
		if r.Retries > 0 {
			o.Counter("scan.domains.retried").Inc()
		}
		if r.RetryRecovered > 0 {
			o.Counter("scan.domains.recovered").Inc()
		}
	}

	if l.Events != nil {
		cats := make([]string, 0, 4)
		for _, c := range r.Categories() {
			cats = append(cats, c.Key())
		}
		codes := make([]string, 0, len(r.Errors))
		for i := range r.Errors {
			codes = append(codes, string(r.Errors[i].Code))
		}
		fields := map[string]any{
			"domain":           r.Domain,
			"duration_ms":      float64(took.Microseconds()) / 1000,
			"record_present":   r.RecordPresent,
			"record_valid":     r.RecordValid,
			"policy_ok":        r.PolicyOK,
			"policy_stage":     r.PolicyStage.Key(),
			"mx_hosts":         len(r.MXHosts),
			"mx_invalid":       r.invalidMXCount(),
			"mx_no_starttls":   len(r.MXNoSTARTTLS),
			"mismatch":         r.Mismatch.Kind.String(),
			"categories":       cats,
			"errors":           codes,
			"delivery_failure": r.DeliveryFailure(),
			"attempts":         r.Attempts,
			"retries":          r.Retries,
			"retry_recovered":  r.RetryRecovered,
			"retry_gave_up":    r.RetryGaveUp,
		}
		if r.MXLookupErr != nil {
			fields["mx_lookup_err"] = r.MXLookupErr.Error()
			// The MX lookup failure is deliberately outside Errors (it is
			// an infrastructure failure, not a domain verdict), but its
			// code still aids triage when present.
			if c, ok := errtax.CodeOf(r.MXLookupErr); ok {
				fields["mx_lookup_err_code"] = string(c)
			}
		}
		l.Events.Emit("scan.domain", fields)
	}
}

// ProbeHost implements StageScanner: resolve the MX host and run the
// instrumented SMTP probe. Like FetchPolicy it depends only on
// scan-global state plus the host, so the Runner may share one host's
// outcome across every domain listing it.
func (l *Live) ProbeHost(ctx context.Context, mxHost string) ProbeOutcome {
	addrs, err := l.DNS.LookupAddrs(ctx, mxHost, false)
	if err != nil || len(addrs) == 0 {
		return ProbeOutcome{Problem: pki.ProblemNoCertificate}
	}
	port := l.Prober.Port
	if port == 0 {
		port = 25
	}
	addr := net.JoinHostPort(addrs[0].String(), strconv.Itoa(port))
	res := l.Prober.ProbeAddr(ctx, mxHost, addr)
	if errors.Is(res.Err, smtpclient.ErrNoSTARTTLS) {
		return ProbeOutcome{NoSTARTTLS: true}
	}
	if !res.TLSEstablished {
		return ProbeOutcome{Problem: pki.ProblemNoCertificate}
	}
	return ProbeOutcome{Problem: res.CertProblem}
}

// TXTResolverAdapter adapts resolver.Client to mtasts.TXTResolver and
// mtasts.AddrResolver for use with the sender-side Validator and its
// Fetcher.
type TXTResolverAdapter struct{ Client *resolver.Client }

// ResolveAddrs implements mtasts.AddrResolver, for Live's own fetcher
// too: CNAMEs chased, A and AAAA.
func (a TXTResolverAdapter) ResolveAddrs(ctx context.Context, host string) ([]string, error) {
	addrs, err := a.Client.LookupAddrs(ctx, host, true)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(addrs))
	for i, addr := range addrs {
		out[i] = addr.String()
	}
	return out, nil
}

// ResolveTXT implements mtasts.TXTResolver.
func (a TXTResolverAdapter) ResolveTXT(ctx context.Context, name string) ([]string, error) {
	return a.Client.LookupTXT(ctx, name)
}

// IsNotFound implements mtasts.TXTResolver.
func (a TXTResolverAdapter) IsNotFound(err error) bool { return resolver.IsNotFound(err) }
