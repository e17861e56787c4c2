package errtax

import "sort"

// Category is the Figure 4 grouping a code belongs to. The values match
// scanner.Category.Key() so the two layers agree on wire names without
// importing each other.
type Category string

// Figure 4 categories (§5 of the paper).
const (
	CategoryDNSRecord     Category = "dns_record"
	CategoryPolicy        Category = "policy"
	CategoryMXCert        Category = "mx_cert"
	CategoryInconsistency Category = "inconsistency"
	// CategoryReport groups the TLSRPT ingestion rejections (§6,
	// Appendix B); these never feed Figure 4 scan classifications.
	CategoryReport Category = "report"
)

// Info is one registry entry: everything the pipeline and the docs know
// about a code.
type Info struct {
	Code  Code
	Layer Layer
	// Category is the single Figure 4 category the code contributes to.
	Category Category
	// Transient is the code's typical retry classification. When Varies
	// is set the bit is computed per instance (from the underlying cause)
	// and Transient records the conservative default.
	Transient bool
	Varies    bool
	// Doc is the one-line human meaning, mirrored in docs/ERRORS.md.
	Doc string
	// Paper cites where the paper discusses this failure mode.
	Paper string
	// TLSRPT is the RFC 8460 §4.3 result type a sender reports for this
	// failure, empty when the code implies none. A plain string, since
	// internal/tlsrpt imports this package; its tests hold every value
	// to one of tlsrpt's ResultType constants.
	TLSRPT string
}

// DNS record codes (TXT discovery and record parsing).
const (
	CodeNXDomain        Code = "nxdomain"
	CodeNoData          Code = "nodata"
	CodeServFail        Code = "servfail"
	CodeRefused         Code = "refused"
	CodeTimeout         Code = "timeout"
	CodeBadDNSMessage   Code = "bad_dns_message"
	CodeCNAMELoop       Code = "cname_loop"
	CodeMultipleRecords Code = "multiple_records"
	CodeBadSyntax       Code = "bad_syntax"
	CodeBadVersion      Code = "bad_version"
)

// Policy retrieval codes (HTTPS fetch stages and policy parsing).
const (
	CodeDNSLookup        Code = "dns_lookup"
	CodeTCPConnect       Code = "tcp_connect"
	CodeTLSHandshake     Code = "tls_handshake"
	CodeHTTPStatus       Code = "http_status"
	CodeWrongContentType Code = "wrong_content_type"
	CodeParse            Code = "parse"
	CodeVersionMismatch  Code = "version_mismatch"
	CodeBadMXPattern     Code = "bad_mx_pattern"
)

// MX certificate codes (SMTP STARTTLS probing and PKIX validation).
const (
	CodeExpired        Code = "expired"
	CodeSelfSigned     Code = "self_signed"
	CodeUntrustedChain Code = "untrusted_chain"
	CodeNameMismatch   Code = "name_mismatch"
	CodeNoCertificate  Code = "no_certificate"
	CodeNoSTARTTLS     Code = "no_starttls"
	CodeGreylisted     Code = "greylisted"
)

// DANE codes (sender-path TLSA lookup and matching).
const (
	CodeNoTLSARecords Code = "no_tlsa_records"
	CodeInsecureTLSA  Code = "insecure_tlsa"
	CodeTLSANoMatch   Code = "tlsa_no_match"
	CodeTLSABadParams Code = "tlsa_bad_params"
)

// Cross-stage codes.
const (
	CodeInconsistency Code = "inconsistency"
)

// TLSRPT report-ingestion codes (RFC 8460 aggregate reports POSTed to
// the service, §6 / Appendix B).
const (
	CodeReportParse             Code = "report_parse"
	CodeReportMissingID         Code = "report_missing_id"
	CodeReportBadWindow         Code = "report_bad_window"
	CodeReportEmptyPolicyDomain Code = "report_empty_policy_domain"
	CodeReportDuplicatePolicy   Code = "report_duplicate_policy"
	CodeReportCountMismatch     Code = "report_count_mismatch"
)

// registry is the single source of truth for the taxonomy. docs/ERRORS.md
// is kept in lockstep by TestErrorDocsConsistency; scan.error.<code>
// counters are pre-registered from it by the scanner.
var registry = []Info{
	// DNS record errors (Figure 4 "DNS Records", §5.1). The resolver
	// codes appear here because a failing TXT lookup for
	// _mta-sts.<domain> is attributed to the DNS record category.
	{CodeNXDomain, LayerDNS, CategoryDNSRecord, false, false,
		"the queried name does not exist (DNS NXDOMAIN)", "§4.3.2", ""},
	{CodeNoData, LayerDNS, CategoryDNSRecord, false, false,
		"the name exists but has no records of the queried type", "§4.3.2", ""},
	{CodeServFail, LayerDNS, CategoryDNSRecord, true, false,
		"the authoritative or recursive server answered SERVFAIL", "§4.3.2", ""},
	{CodeRefused, LayerDNS, CategoryDNSRecord, true, false,
		"the server refused the query (DNS REFUSED)", "§4.3.2", ""},
	{CodeTimeout, LayerDNS, CategoryDNSRecord, true, false,
		"the DNS exchange timed out", "§4.3.2", ""},
	{CodeBadDNSMessage, LayerDNS, CategoryDNSRecord, true, false,
		"the DNS response was malformed or had an unexpected rcode", "§4.3.2", ""},
	{CodeCNAMELoop, LayerDNS, CategoryDNSRecord, false, false,
		"CNAME chase exceeded the loop limit", "§4.3.2", ""},
	{CodeMultipleRecords, LayerDNS, CategoryDNSRecord, false, false,
		"more than one MTA-STS TXT record at _mta-sts.<domain> (RFC 8461 requires exactly one)", "§5.1", ""},
	{CodeBadSyntax, LayerDNS, CategoryDNSRecord, false, false,
		"the MTA-STS TXT record is syntactically invalid (missing/bad id, bad field syntax, duplicate fields)", "§5.1", ""},
	{CodeBadVersion, LayerDNS, CategoryDNSRecord, false, false,
		"the record's v= field is not STSv1", "§5.1", ""},

	// Policy retrieval errors (Figure 4 "Policy Retrieval", §5.2).
	{CodeDNSLookup, LayerFetch, CategoryPolicy, false, true,
		"the policy host mta-sts.<domain> did not resolve", "§5.2", "sts-policy-fetch-error"},
	{CodeTCPConnect, LayerFetch, CategoryPolicy, true, true,
		"TCP connection to the policy host failed", "§5.2", "sts-policy-fetch-error"},
	{CodeTLSHandshake, LayerFetch, CategoryPolicy, false, true,
		"the HTTPS handshake with the policy host failed (certificate or protocol)", "§5.2", "sts-webpki-invalid"},
	{CodeHTTPStatus, LayerFetch, CategoryPolicy, false, true,
		"the policy endpoint answered a non-200 HTTP status", "§5.2", "sts-policy-fetch-error"},
	{CodeWrongContentType, LayerFetch, CategoryPolicy, false, false,
		"the policy was served with a Content-Type other than text/plain (RFC 8461 §3.3)", "§5.2", "sts-policy-invalid"},
	{CodeParse, LayerFetch, CategoryPolicy, false, false,
		"the policy body does not parse (bad fields, line endings, size, charset)", "§5.2", "sts-policy-invalid"},
	{CodeVersionMismatch, LayerFetch, CategoryPolicy, false, false,
		"the policy's version field is not STSv1", "§5.2", "sts-policy-invalid"},
	{CodeBadMXPattern, LayerFetch, CategoryPolicy, false, false,
		"the policy's mx patterns are missing or syntactically invalid", "§5.2", "sts-policy-invalid"},

	// MX certificate errors (Figure 4 "MX Hosts Cert.", §5.3).
	{CodeExpired, LayerProbe, CategoryMXCert, false, false,
		"an MX host's certificate is expired (or not yet valid)", "§5.3", "certificate-expired"},
	{CodeSelfSigned, LayerProbe, CategoryMXCert, false, false,
		"an MX host presents a self-signed certificate", "§5.3", "certificate-not-trusted"},
	{CodeUntrustedChain, LayerProbe, CategoryMXCert, false, false,
		"an MX host's certificate chain does not anchor in a trusted root", "§5.3", "certificate-not-trusted"},
	{CodeNameMismatch, LayerProbe, CategoryMXCert, false, false,
		"an MX host's certificate does not cover the MX name", "§5.3", "certificate-host-mismatch"},
	{CodeNoCertificate, LayerProbe, CategoryMXCert, false, false,
		"the TLS handshake with an MX host failed before a certificate could be evaluated", "§5.3", "certificate-not-trusted"},
	{CodeNoSTARTTLS, LayerProbe, CategoryMXCert, false, false,
		"an MX host does not advertise STARTTLS (excluded from certificate analysis, footnote 4)", "§5.3", "starttls-not-supported"},
	{CodeGreylisted, LayerProbe, CategoryMXCert, true, false,
		"an MX host temporarily rejected the probe (greylisting); retried, never a verdict", "§4.3.3", ""},

	// DANE/TLSA errors on the sender path (§6).
	{CodeNoTLSARecords, LayerDANE, CategoryMXCert, false, false,
		"no TLSA records exist for the MX host", "§6", ""},
	{CodeInsecureTLSA, LayerDANE, CategoryMXCert, false, false,
		"TLSA records exist but are not DNSSEC-authenticated", "§6", "dnssec-invalid"},
	{CodeTLSANoMatch, LayerDANE, CategoryMXCert, false, false,
		"no TLSA record matches the certificate the MX presented", "§6", "tlsa-invalid"},
	{CodeTLSABadParams, LayerDANE, CategoryMXCert, false, false,
		"a TLSA record carries an unsupported usage/selector/matching combination", "§6", "tlsa-invalid"},

	// Inconsistency (Figure 4 "Inconsistency", §5.4).
	{CodeInconsistency, LayerScan, CategoryInconsistency, false, false,
		"record, policy, and MX hosts are individually valid but the policy's mx patterns do not cover the MX records", "§5.4", "validation-failure"},

	// TLSRPT aggregate-report ingestion rejections (§6, Appendix B).
	// All persistent: a malformed report stays malformed on retry.
	{CodeReportParse, LayerReport, CategoryReport, false, false,
		"the report body is not a valid RFC 8460 JSON document", "Appendix B", ""},
	{CodeReportMissingID, LayerReport, CategoryReport, false, false,
		"the report carries no report-id (required by RFC 8460 §4.1)", "Appendix B", ""},
	{CodeReportBadWindow, LayerReport, CategoryReport, false, false,
		"the report's date-range is missing or ends before it starts", "Appendix B", ""},
	{CodeReportEmptyPolicyDomain, LayerReport, CategoryReport, false, false,
		"a policy section has an empty policy-domain, so its counts cannot be attributed", "Appendix B", ""},
	{CodeReportDuplicatePolicy, LayerReport, CategoryReport, false, false,
		"two policy sections share one (policy-type, policy-domain) pair, double-counting sessions", "Appendix B", ""},
	{CodeReportCountMismatch, LayerReport, CategoryReport, false, false,
		"a policy section's failure-details counts do not sum to its summary total (or are negative)", "Appendix B", ""},
}

// index is built once from the registry slice.
var index = func() map[Code]Info {
	m := make(map[Code]Info, len(registry))
	for _, in := range registry {
		m[in.Code] = in
	}
	return m
}()

// Codes returns every registered code, sorted, for deterministic
// iteration (counter pre-registration, docs checks).
func Codes() []Code {
	out := make([]Code, 0, len(index))
	for c := range index {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Registry returns a copy of every registry entry, sorted by code.
func Registry() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Lookup returns the registry entry for a code.
func Lookup(c Code) (Info, bool) {
	in, ok := index[c]
	return in, ok
}

// TLSRPTResult returns the RFC 8460 §4.3 result type a sender reports
// for a failure with code c: the code's registry column, or
// "validation-failure", RFC 8460's general failure, when c is empty,
// unregistered or implies no specific type.
func TLSRPTResult(c Code) string {
	if r := index[c].TLSRPT; r != "" {
		return r
	}
	return "validation-failure"
}

// CategoryOf returns the Figure 4 category a code contributes to
// (empty for unregistered codes).
func CategoryOf(c Code) Category {
	return index[c].Category
}
