package scanner

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
)

// Category is the Figure 4 error grouping.
type Category int

// Error categories (not mutually exclusive).
const (
	// CategoryDNSRecord: the MTA-STS TXT record is invalid.
	CategoryDNSRecord Category = iota
	// CategoryPolicy: the policy could not be retrieved or parsed.
	CategoryPolicy
	// CategoryMXCert: at least one MX host presents a PKIX-invalid
	// certificate.
	CategoryMXCert
	// CategoryInconsistency: components are individually valid but the mx
	// patterns do not match the MX records.
	CategoryInconsistency
)

// String returns the Figure 4 series label.
func (c Category) String() string {
	switch c {
	case CategoryDNSRecord:
		return "DNS Records"
	case CategoryPolicy:
		return "Policy Retrieval"
	case CategoryMXCert:
		return "MX Hosts Cert."
	case CategoryInconsistency:
		return "Inconsistency"
	}
	return "unknown"
}

// Key returns the stable lowercase identifier used as the final segment
// of metric names (scan.category.<key>) and in scan events.
func (c Category) Key() string {
	switch c {
	case CategoryDNSRecord:
		return "dns_record"
	case CategoryPolicy:
		return "policy"
	case CategoryMXCert:
		return "mx_cert"
	case CategoryInconsistency:
		return "inconsistency"
	}
	return "unknown"
}

// DomainResult is everything one scan records about one domain.
type DomainResult struct {
	Domain string
	// MXHosts are the domain's MX records at scan time.
	MXHosts []string
	// MXLookupErr records a failed MX lookup (SERVFAIL, timeout, …).
	// NXDOMAIN/NODATA — a domain that simply has no MX records — is not
	// an error and leaves this nil. When set, MXHosts is empty and the MX
	// probe and consistency stages could not run, so their verdicts are
	// absence-of-evidence rather than evidence of health.
	MXLookupErr error

	// RecordPresent is true when any TXT at _mta-sts.<domain> looks like
	// an MTA-STS record or attempt; domains without it are outside the
	// study population.
	RecordPresent bool
	// RecordValid is true when exactly one syntactically valid record was
	// found.
	RecordValid bool
	// Record is the parsed record when valid.
	Record mtasts.Record
	// RecordErr classifies the record failure (ErrMissingID, ErrBadID,
	// ErrBadVersion, ErrBadExtension, ErrMultipleRecords).
	RecordErr error

	// PolicyOK is true when a valid policy was fetched.
	PolicyOK bool
	// Policy is the parsed policy when PolicyOK.
	Policy mtasts.Policy
	// PolicyStage is the retrieval failure stage (StageNone when OK).
	PolicyStage mtasts.Stage
	// PolicyCertProblem refines StageTLS failures.
	PolicyCertProblem pki.Problem
	// PolicyHTTPStatus refines StageHTTP failures.
	PolicyHTTPStatus int
	// PolicySyntaxErr holds the parse failure for StageSyntax.
	PolicySyntaxErr error
	// PolicyCNAME is the delegation target of mta-sts.<domain>, if any.
	PolicyCNAME string

	// MXProblems maps each probed MX host to its certificate outcome.
	// Hosts that do not offer STARTTLS at all are absent (footnote 4 of
	// the paper: only TLS-capable MXes are analyzed further) and recorded
	// in MXNoSTARTTLS.
	MXProblems   map[string]pki.Problem
	MXNoSTARTTLS []string

	// Mismatch is the consistency analysis (§4.4); only meaningful when a
	// policy was obtained.
	Mismatch inconsistency.Finding

	// Errors is the domain's position in the paper's error taxonomy
	// (docs/ERRORS.md): one typed error per misconfiguration the scan
	// established — the invalid record, the failed policy retrieval, each
	// PKIX-invalid MX, the policy/MX inconsistency. Populated by Finalize
	// from the fields above (TaxErrors derives it on demand for results
	// built by hand); the Figure 4 Categories are a projection of these
	// codes. Deliberately excluded: MXLookupErr (an infrastructure
	// failure, not a verdict about the domain), no-STARTTLS hosts
	// (footnote 4 excludes them from certificate analysis), and the
	// non-fatal wrong Content-Type measurement.
	Errors []errtax.Error

	// Attempts counts every network operation attempt (DNS exchanges,
	// policy fetches, SMTP probes) behind this verdict, including firsts.
	Attempts int64
	// Retries counts attempts beyond each operation's first.
	Retries int64
	// RetryRecovered counts operations that succeeded only after a
	// retry — the verdict survived a transient failure that a
	// single-attempt scan would have misclassified.
	RetryRecovered int64
	// RetryGaveUp counts operations that exhausted their retry
	// allowance on transient errors; verdicts built on them may not
	// reflect the endpoint's steady state.
	RetryGaveUp int64

	// Canceled marks a domain whose scan was cut short by run
	// cancellation. Its other fields are partial evidence, not a
	// verdict, and it is excluded from the error taxonomy.
	Canceled bool
}

// ClassificationKey canonically encodes every classification-bearing
// field of the result — everything a scan concludes about the domain,
// excluding the retry-accounting fields (Attempts, Retries,
// RetryRecovered, RetryGaveUp), which legitimately vary with scheduling
// even when the verdict does not. Two results with equal keys classify
// identically in every figure and summary; equivalence tests compare
// keys to prove the Runner agrees with the sequential ScanDomain loop.
func (r *DomainResult) ClassificationKey() string {
	return string(r.AppendClassificationKey(nil))
}

// AppendClassificationKey appends ClassificationKey's bytes to dst and
// returns the extended slice. The layout is a stored format — campaign
// class hashes are taken over it and compared across weeks — so it is
// frozen byte for byte (result_test.go pins it against its original
// fmt formulation):
//
//	domain=%s canceled=%v mx=%v mx_lookup_err=%v present=%v valid=%v
//	record=%+v record_err=%v policy_ok=%v policy=%+v stage=%s cert=%s
//	http=%d syntax=%v cname=%s mx[%s]=%s ... no_starttls=%v mismatch=%+v
//
// with single spaces between fields, the mx[host] entries in sorted
// host order, and no trailing space.
func (r *DomainResult) AppendClassificationKey(dst []byte) []byte {
	dst = append(dst, "domain="...)
	dst = append(dst, r.Domain...)
	dst = append(dst, " canceled="...)
	dst = strconv.AppendBool(dst, r.Canceled)
	dst = append(dst, " mx="...)
	dst = appendList(dst, r.MXHosts)
	dst = append(dst, " mx_lookup_err="...)
	dst = appendErr(dst, r.MXLookupErr)
	dst = append(dst, " present="...)
	dst = strconv.AppendBool(dst, r.RecordPresent)
	dst = append(dst, " valid="...)
	dst = strconv.AppendBool(dst, r.RecordValid)
	dst = append(dst, " record="...)
	dst = append(dst, r.Record.String()...)
	dst = append(dst, " record_err="...)
	dst = appendErr(dst, r.RecordErr)
	dst = append(dst, " policy_ok="...)
	dst = strconv.AppendBool(dst, r.PolicyOK)
	dst = append(dst, " policy="...)
	dst = append(dst, r.Policy.String()...)
	dst = append(dst, " stage="...)
	dst = append(dst, r.PolicyStage.Key()...)
	dst = append(dst, " cert="...)
	dst = append(dst, r.PolicyCertProblem.String()...)
	dst = append(dst, " http="...)
	dst = strconv.AppendInt(dst, int64(r.PolicyHTTPStatus), 10)
	dst = append(dst, " syntax="...)
	dst = appendErr(dst, r.PolicySyntaxErr)
	dst = append(dst, " cname="...)
	dst = append(dst, r.PolicyCNAME...)
	dst = append(dst, ' ')
	var hostBuf [8]string // a domain has few MX hosts: sort them on the stack
	hosts := hostBuf[:0]
	for mx := range r.MXProblems {
		hosts = append(hosts, mx)
	}
	slices.Sort(hosts)
	for _, mx := range hosts {
		dst = append(dst, "mx["...)
		dst = append(dst, mx...)
		dst = append(dst, "]="...)
		dst = append(dst, r.MXProblems[mx].String()...)
		dst = append(dst, ' ')
	}
	dst = append(dst, "no_starttls="...)
	dst = appendList(dst, r.MXNoSTARTTLS)
	dst = append(dst, " mismatch="...)
	return appendFinding(dst, &r.Mismatch)
}

// appendList writes a string slice as fmt's %v does: "[a b c]", and
// "[]" for a nil or empty slice.
func appendList(dst []byte, list []string) []byte {
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, s...)
	}
	return append(dst, ']')
}

// appendErr writes an error as fmt's %v does: its message, or "<nil>".
func appendErr(dst []byte, err error) []byte {
	if err == nil {
		return append(dst, "<nil>"...)
	}
	return append(dst, err.Error()...)
}

// appendFinding writes a Finding as fmt's %+v does: field names and
// values in declaration order, Kind by its String method.
func appendFinding(dst []byte, f *inconsistency.Finding) []byte {
	dst = append(dst, "{Domain:"...)
	dst = append(dst, f.Domain...)
	dst = append(dst, " Kind:"...)
	dst = append(dst, f.Kind.String()...)
	dst = append(dst, " MXHosts:"...)
	dst = appendList(dst, f.MXHosts)
	dst = append(dst, " Patterns:"...)
	dst = appendList(dst, f.Patterns)
	dst = append(dst, " MTASTSLabelInPattern:"...)
	dst = strconv.AppendBool(dst, f.MTASTSLabelInPattern)
	dst = append(dst, " Enforce:"...)
	dst = strconv.AppendBool(dst, f.Enforce)
	return append(dst, '}')
}

// TaxErrors returns the domain's typed taxonomy errors: the finalized
// Errors field when populated, otherwise derived on the spot from the
// classification fields (so hand-built results classify identically).
func (r *DomainResult) TaxErrors() []errtax.Error {
	if r.Errors != nil {
		return r.Errors
	}
	return r.deriveTaxErrors()
}

// deriveTaxErrors projects the classification fields onto the error
// taxonomy. The conditions mirror, clause for clause, the seed's
// Categories logic, so the category set derived from these codes is
// extensionally identical to the pre-taxonomy booleans (pinned by the
// equivalence tests).
func (r *DomainResult) deriveTaxErrors() []errtax.Error {
	var errs []errtax.Error
	if r.RecordPresent && !r.RecordValid {
		errs = append(errs, taxFromErr(r.RecordErr, errtax.LayerDNS, errtax.CodeBadSyntax))
	}
	if r.RecordValid && !r.PolicyOK {
		code, cause := r.policyCode()
		info, _ := errtax.Lookup(code)
		errs = append(errs, errtax.Error{Layer: errtax.LayerFetch, Code: code, Transient: info.Transient && !info.Varies, Cause: cause})
	}
	for _, mx := range r.sortedMXProblemHosts() {
		if p := r.MXProblems[mx]; !p.Valid() {
			errs = append(errs, errtax.Error{
				Layer: errtax.LayerProbe,
				Code:  p.Code(),
				Cause: &mxCertError{host: mx, problem: p},
			})
		}
	}
	if r.PolicyOK && r.Mismatch.Kind != inconsistency.KindNone {
		errs = append(errs, errtax.Error{Layer: errtax.LayerScan, Code: errtax.CodeInconsistency})
	}
	return errs
}

// taxFromErr types err: a typed error in the chain keeps its position
// (with the full chain as cause); an untyped one gets the fallback code
// with the registry's default transience.
func taxFromErr(err error, fallbackLayer errtax.Layer, fallbackCode errtax.Code) errtax.Error {
	var te *errtax.Error
	if errors.As(err, &te) {
		return errtax.Error{Layer: te.Layer, Code: te.Code, Transient: te.Transient, Cause: err}
	}
	info, _ := errtax.Lookup(fallbackCode)
	return errtax.Error{Layer: fallbackLayer, Code: fallbackCode, Transient: info.Transient && !info.Varies, Cause: err}
}

// policyCode maps the retrieval failure stage to its taxonomy code; a
// syntax failure refines to the parse error's own code.
func (r *DomainResult) policyCode() (errtax.Code, error) {
	switch r.PolicyStage {
	case mtasts.StageDNS:
		return errtax.CodeDNSLookup, nil
	case mtasts.StageTCP:
		return errtax.CodeTCPConnect, nil
	case mtasts.StageTLS:
		return errtax.CodeTLSHandshake, nil
	case mtasts.StageHTTP:
		return errtax.CodeHTTPStatus, nil
	case mtasts.StageSyntax:
		if c, ok := errtax.CodeOf(r.PolicySyntaxErr); ok {
			return c, r.PolicySyntaxErr
		}
		return errtax.CodeParse, r.PolicySyntaxErr
	}
	return errtax.CodeParse, nil
}

// mxCertError carries the host behind an MX certificate verdict without
// allocating a formatted string unless someone prints it.
type mxCertError struct {
	host    string
	problem pki.Problem
}

func (e *mxCertError) Error() string {
	return fmt.Sprintf("scanner: mx %s certificate: %s", e.host, e.problem)
}

func (r *DomainResult) sortedMXProblemHosts() []string {
	hosts := make([]string, 0, len(r.MXProblems))
	for mx := range r.MXProblems {
		hosts = append(hosts, mx)
	}
	sort.Strings(hosts)
	return hosts
}

// categoryOrder fixes the Figure 4 presentation order; Categories
// preserves it regardless of error order.
var categoryOrder = [...]Category{CategoryDNSRecord, CategoryPolicy, CategoryMXCert, CategoryInconsistency}

// Categories returns the Figure 4 error categories the domain falls
// into, projected from its taxonomy codes via the errtax registry.
func (r *DomainResult) Categories() []Category {
	var present [len(categoryOrder)]bool
	for _, e := range r.TaxErrors() {
		switch errtax.CategoryOf(e.Code) {
		case errtax.CategoryDNSRecord:
			present[0] = true
		case errtax.CategoryPolicy:
			present[1] = true
		case errtax.CategoryMXCert:
			present[2] = true
		case errtax.CategoryInconsistency:
			present[3] = true
		}
	}
	var cats []Category
	for i, c := range categoryOrder {
		if present[i] {
			cats = append(cats, c)
		}
	}
	return cats
}

// Misconfigured reports whether the domain has any error (§4.2: 29.6% of
// MTA-STS domains in the latest snapshot).
func (r *DomainResult) Misconfigured() bool { return len(r.Categories()) > 0 }

func (r *DomainResult) invalidMXCount() int {
	n := 0
	for _, p := range r.MXProblems {
		if !p.Valid() {
			n++
		}
	}
	return n
}

// AllMXInvalid reports whether every probed MX presented an invalid
// certificate (Figure 7 "All Invalid").
func (r *DomainResult) AllMXInvalid() bool {
	return len(r.MXProblems) > 0 && r.invalidMXCount() == len(r.MXProblems)
}

// PartiallyMXInvalid reports whether some but not all MXes are invalid
// (Figure 7 "Partially Invalid").
func (r *DomainResult) PartiallyMXInvalid() bool {
	n := r.invalidMXCount()
	return n > 0 && n < len(r.MXProblems)
}

// EnforceCertFailureRisk reports the Figure 7 "enforce mode" series:
// an enforce policy with at least one PKIX-invalid MX host.
func (r *DomainResult) EnforceCertFailureRisk() bool {
	return r.PolicyOK && r.Policy.Mode == mtasts.ModeEnforce && r.invalidMXCount() > 0
}

// EnforceMismatchFailure reports the Figure 8 "enforce mode" series: an
// enforce policy none of whose patterns match any MX record.
func (r *DomainResult) EnforceMismatchFailure() bool {
	return r.PolicyOK && r.Policy.Mode == mtasts.ModeEnforce &&
		r.Mismatch.Kind != inconsistency.KindNone
}

// DeliveryFailure reports whether a compliant sender would be unable to
// deliver to the domain at all: an enforce policy where no MX matches, or
// every matching MX fails certificate validation (the 640-domain / 3.2%
// population in the paper's abstract).
func (r *DomainResult) DeliveryFailure() bool {
	if !r.PolicyOK || r.Policy.Mode != mtasts.ModeEnforce {
		return false
	}
	matched, _ := r.Policy.FilterMatching(r.MXHosts)
	if len(r.MXHosts) > 0 && len(matched) == 0 {
		return true
	}
	// All matched MXes must fail TLS for delivery to be impossible.
	usable := 0
	for _, mx := range matched {
		if p, ok := r.MXProblems[mx]; ok && p.Valid() {
			usable++
		}
	}
	return len(matched) > 0 && usable == 0 && len(r.MXProblems) > 0
}
