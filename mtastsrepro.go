// Package mtastsrepro is the public API of the MTA-STS reproduction: a
// production-quality RFC 8461 implementation (record and policy parsing,
// mx matching, policy fetching with a staged error taxonomy, a TOFU policy
// cache, and the full sender validation flow), the measurement scanner the
// study is built on, and the calibrated ecosystem model that regenerates
// every table and figure of the paper.
//
// The package re-exports the stable surface of the internal packages so
// downstream users interact with one import path:
//
//	import mtastsrepro "github.com/netsecurelab/mtasts"
//
//	rec, err := mtastsrepro.ParseRecord("v=STSv1; id=20240929;")
//	policy, err := mtastsrepro.ParsePolicy(body)
//	ok := policy.Matches("mx1.example.com")
//
// For end-to-end validation against live infrastructure, see Validator and
// CheckDomain; for the paper's experiments, see the experiments package
// via cmd/reproduce.
package mtastsrepro

import (
	"context"
	"crypto/x509"
	"time"

	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
)

// Core RFC 8461 types.
type (
	// Record is a parsed "_mta-sts" TXT record.
	Record = mtasts.Record
	// Policy is a parsed MTA-STS policy file.
	Policy = mtasts.Policy
	// Mode is a policy mode (enforce/testing/none).
	Mode = mtasts.Mode
	// Fetcher retrieves policies over HTTPS with RFC 8461 constraints.
	Fetcher = mtasts.Fetcher
	// FetchError carries the retrieval failure stage.
	FetchError = mtasts.FetchError
	// Stage is the policy-retrieval pipeline stage of a failure.
	Stage = mtasts.Stage
	// PolicyCache is the sender-side TOFU policy store: durable over
	// an internal store, stale-window retaining, fetch-coalescing.
	// NewPolicyCache builds the in-memory one.
	PolicyCache = mtasts.PolicyCache
	// Validator is the sender-side validation engine.
	Validator = mtasts.Validator
	// Evaluation is a full validation outcome.
	Evaluation = mtasts.Evaluation
	// Action is the delivery decision of a compliant sender.
	Action = mtasts.Action
)

// Policy modes.
const (
	ModeEnforce = mtasts.ModeEnforce
	ModeTesting = mtasts.ModeTesting
	ModeNone    = mtasts.ModeNone
)

// Delivery decisions.
const (
	ActionDeliver            = mtasts.ActionDeliver
	ActionDeliverUnvalidated = mtasts.ActionDeliverUnvalidated
	ActionRefuse             = mtasts.ActionRefuse
)

// Retrieval stages.
const (
	StageNone   = mtasts.StageNone
	StageDNS    = mtasts.StageDNS
	StageTCP    = mtasts.StageTCP
	StageTLS    = mtasts.StageTLS
	StageHTTP   = mtasts.StageHTTP
	StageSyntax = mtasts.StageSyntax
)

// ParseRecord parses one TXT value as an MTA-STS record per RFC 8461 §3.1.
func ParseRecord(txt string) (Record, error) { return mtasts.ParseRecord(txt) }

// DiscoverRecord applies the multi-record rule to a full TXT RRset.
func DiscoverRecord(txts []string) (Record, error) { return mtasts.DiscoverRecord(txts) }

// ParsePolicy parses a policy file body per RFC 8461 §3.2.
func ParsePolicy(body []byte) (Policy, error) { return mtasts.ParsePolicy(body) }

// MatchMX reports whether an MX host matches one mx pattern (§4.1).
func MatchMX(pattern, mxHost string) bool { return mtasts.MatchMX(pattern, mxHost) }

// CheckMXPattern validates the syntax of one mx pattern.
func CheckMXPattern(pattern string) error { return mtasts.CheckMXPattern(pattern) }

// PolicyHost returns "mta-sts." + domain.
func PolicyHost(domain string) string { return mtasts.PolicyHost(domain) }

// PolicyURL returns the well-known HTTPS URL of a domain's policy.
func PolicyURL(domain string) string { return mtasts.PolicyURL(domain) }

// NewPolicyCache returns an in-memory TOFU policy cache bounded to max
// domains.
func NewPolicyCache(max int) *PolicyCache { return mtasts.NewPolicyCache(max) }

// Scanner types: the measurement pipeline of the study.
type (
	// DomainResult is everything one scan records about a domain.
	DomainResult = scanner.DomainResult
	// ScanSummary aggregates a snapshot of results.
	ScanSummary = scanner.Summary
	// LiveScanner probes real DNS/HTTPS/SMTP infrastructure.
	LiveScanner = scanner.Live
	// Artifacts are materialized scan observables for offline evaluation.
	Artifacts = scanner.Artifacts
)

// ScanArtifacts evaluates materialized observables through the same
// parsers and validators the live scanner uses.
func ScanArtifacts(a Artifacts, now time.Time) DomainResult {
	return scanner.ScanArtifacts(a, now)
}

// Summarize aggregates scan results.
func Summarize(results []DomainResult) ScanSummary { return scanner.Summarize(results) }

// CheckOptions configures CheckDomain.
type CheckOptions struct {
	// DNSAddr is the DNS server ("host:port") the wire resolver queries.
	DNSAddr string
	// Roots is the PKIX trust store (nil: system store semantics do not
	// apply to the wire fetcher — supply the CA used by the substrate).
	Roots *x509.CertPool
	// HTTPSPort / SMTPPort override 443/25.
	HTTPSPort, SMTPPort int
	// Timeout bounds each probe. Zero means 5s.
	Timeout time.Duration
}

// CheckDomain runs the full measurement pipeline for one domain against
// live infrastructure: record discovery, policy retrieval with the staged
// error taxonomy, MX STARTTLS certificate collection, and consistency
// analysis.
func CheckDomain(ctx context.Context, domain string, opts CheckOptions) DomainResult {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	dns := resolver.New(opts.DNSAddr)
	dns.QueriesPerSocket = resolver.ScannerQueriesPerSocket
	live := &scanner.Live{
		DNS: dns,
		Fetcher: &mtasts.Fetcher{
			Resolver: scanner.TXTResolverAdapter{Client: dns}, RootCAs: opts.Roots,
			Port: opts.HTTPSPort, Timeout: timeout,
		},
		Prober: &smtpclient.Prober{
			HeloName: "mtastsrepro.invalid", Roots: opts.Roots,
			Port: opts.SMTPPort, Timeout: timeout,
		},
	}
	return live.ScanDomain(ctx, domain)
}

// CertProblem is the PKIX validation outcome taxonomy.
type CertProblem = pki.Problem

// Certificate validation outcomes.
const (
	CertOK           = pki.OK
	CertExpired      = pki.ProblemExpired
	CertSelfSigned   = pki.ProblemSelfSigned
	CertUntrusted    = pki.ProblemUntrusted
	CertNameMismatch = pki.ProblemNameMismatch
	CertMissing      = pki.ProblemNoCertificate
)

// CertProfile is the descriptor form of a server certificate used by the
// offline scan pipeline.
type CertProfile = pki.CertProfile

// GoodCertProfile returns a profile that validates for the names around
// now.
func GoodCertProfile(now time.Time, names ...string) CertProfile {
	return pki.GoodProfile(now, names...)
}

// ExpiredCertProfile returns a profile whose validity has ended.
func ExpiredCertProfile(now time.Time, names ...string) CertProfile {
	return pki.ExpiredProfile(now, names...)
}

// SelfSignedCertProfile returns a self-issued profile.
func SelfSignedCertProfile(now time.Time, names ...string) CertProfile {
	return pki.SelfSignedProfile(now, names...)
}

// World is the calibrated synthetic MTA-STS ecosystem.
type World = simnet.World

// WorldConfig parameterizes ecosystem generation.
type WorldConfig = simnet.Config

// GenerateWorld builds a synthetic ecosystem; Scale 1.0 reproduces the
// paper's 68K-domain final snapshot.
func GenerateWorld(cfg WorldConfig) *World { return simnet.Generate(cfg) }
