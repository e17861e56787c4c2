package scanner

import (
	"context"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/retry"
)

// Scanner is the per-domain scan interface shared by Live and artifact
// replays.
type Scanner interface {
	ScanDomain(ctx context.Context, domain string) DomainResult
}

// Runner fans a scan out over many domains, mirroring the paper's
// weekly/monthly snapshot scans, through the staged pipeline of
// pipeline.go. The run-level contract: results sorted by domain, one
// result per submitted domain, canceled placeholders for domains the
// run could not scan.
type Runner struct {
	// Workers sizes every stage pool StageWorkers leaves unset
	// (minimum 1).
	Workers int
	// Scan is the per-domain scanner. A StageScanner (Live,
	// ArtifactScanner) is scheduled stage by stage; any other Scanner
	// runs whole inside the DNS pool.
	Scan Scanner
	// Obs, when non-nil, receives run-level metrics: the "scan" progress
	// tracker (total/done/in-flight/rate, served at /debug/scanprogress),
	// the scanner.stage.<stage>.* family, the scanner.scans.total
	// counter, and the scanner.domain_scan.seconds latency histogram. A
	// nil registry costs one pointer check per run.
	Obs *obs.Registry
	// Events, when non-nil, receives scan.run.start / scan.run.end
	// events bracketing each Run call.
	Events *obs.EventSink

	// StageWorkers sizes the per-stage pools; unset stages default to
	// Workers.
	StageWorkers StageWorkers
	// RetryBudget, when non-nil, caps the retries of every Run of this
	// Runner together: Run puts it in the scan context, where each
	// client's retry.Policy draws on it.
	RetryBudget *retry.Budget
}

// Summary aggregates a snapshot of results into the headline counts of
// §4.2 and the per-figure series.
type Summary struct {
	Total         int // domains submitted (scanned + canceled)
	Canceled      int // domains cut short by run cancellation
	WithRecord    int // domains with an MTA-STS record (valid or not)
	Misconfigured int

	ByCategory map[Category]int
	// ByCode breaks the taxonomy down to individual error codes
	// (docs/ERRORS.md): how many domains exhibit each failure mode at
	// least once. Finer-grained than ByCategory — a domain with three
	// expired MX certificates counts once under "expired".
	ByCode map[errtax.Code]int
	// PolicyStageCounts breaks CategoryPolicy down per Figure 5.
	PolicyStageCounts map[string]int
	// MismatchKindCounts breaks CategoryInconsistency down per Figure 8.
	MismatchKindCounts map[string]int

	AllMXInvalid       int
	PartiallyMXInvalid int
	EnforceCertRisk    int
	EnforceMismatch    int
	DeliveryFailures   int
}

// Summarize computes the aggregate over a result set.
func Summarize(results []DomainResult) Summary {
	s := Summary{
		ByCategory:         make(map[Category]int),
		ByCode:             make(map[errtax.Code]int),
		PolicyStageCounts:  make(map[string]int),
		MismatchKindCounts: make(map[string]int),
	}
	for i := range results {
		r := &results[i]
		s.Total++
		if r.Canceled {
			// Partial evidence, not a verdict: canceled domains are
			// counted but excluded from the error taxonomy.
			s.Canceled++
			continue
		}
		if !r.RecordPresent {
			continue
		}
		s.WithRecord++
		if r.Misconfigured() {
			s.Misconfigured++
		}
		for _, c := range r.Categories() {
			s.ByCategory[c]++
			switch c {
			case CategoryPolicy:
				s.PolicyStageCounts[r.PolicyStage.String()]++
			case CategoryInconsistency:
				s.MismatchKindCounts[r.Mismatch.Kind.String()]++
			}
		}
		seenCodes := make(map[errtax.Code]bool, 4)
		for _, e := range r.TaxErrors() {
			if !seenCodes[e.Code] {
				seenCodes[e.Code] = true
				s.ByCode[e.Code]++
			}
		}
		if r.AllMXInvalid() {
			s.AllMXInvalid++
		}
		if r.PartiallyMXInvalid() {
			s.PartiallyMXInvalid++
		}
		if r.EnforceCertFailureRisk() {
			s.EnforceCertRisk++
		}
		if r.EnforceMismatchFailure() {
			s.EnforceMismatch++
		}
		if r.DeliveryFailure() {
			s.DeliveryFailures++
		}
	}
	return s
}
