package tlsrpt

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/errtax"
)

func window() (time.Time, time.Time) {
	start := time.Date(2024, 9, 28, 0, 0, 0, 0, time.UTC)
	return start, start.Add(24 * time.Hour)
}

func TestReportBuildAndValidate(t *testing.T) {
	start, end := window()
	r := NewReport("Example Sender Org", "mailto:tlsrpt@sender.example", "2024-09-28-001", start, end)
	r.AddSuccess(PolicyTypeSTS, "recipient.example", 120)
	r.AddFailure(PolicyTypeSTS, "recipient.example", ResultCertificateHostMismatch, "mx1.recipient.example", 3)
	r.AddFailure(PolicyTypeSTS, "recipient.example", ResultCertificateHostMismatch, "mx1.recipient.example", 2)
	r.AddFailure(PolicyTypeSTS, "recipient.example", ResultSTSPolicyFetchError, "mx1.recipient.example", 1)
	r.AddSuccess(PolicyTypeTLSA, "dane.example", 40)

	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := r.Policy(PolicyTypeSTS, "recipient.example")
	if p.Summary.TotalSuccessfulSessionCount != 120 || p.Summary.TotalFailureSessionCount != 6 {
		t.Errorf("summary = %+v", p.Summary)
	}
	if len(p.FailureDetails) != 2 {
		t.Fatalf("failure details = %d", len(p.FailureDetails))
	}
	if p.FailureDetails[0].FailedSessionCount != 5 {
		t.Errorf("same-class failures not coalesced: %+v", p.FailureDetails[0])
	}
	if len(r.Policies) != 2 {
		t.Errorf("policies = %d", len(r.Policies))
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	start, end := window()
	r := NewReport("Org", "mailto:r@o.example", "rid-1", start, end)
	r.AddSuccess(PolicyTypeSTS, "d.example", 7)
	r.AddFailure(PolicyTypeSTS, "d.example", ResultSTARTTLSNotSupported, "mx.d.example", 2)

	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// RFC 8460 field names are kebab-case.
	for _, key := range []string{
		`"organization-name"`, `"date-range"`, `"start-datetime"`,
		`"report-id"`, `"policy-type"`, `"total-successful-session-count"`,
		`"failed-session-count"`, `"result-type"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON missing %s:\n%s", key, data)
		}
	}
	back, err := UnmarshalReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.ReportID != "rid-1" || len(back.Policies) != 1 ||
		back.Policies[0].Summary.TotalFailureSessionCount != 2 {
		t.Errorf("round-trip = %+v", back)
	}
	if !back.DateRange.StartDatetime.Equal(start) {
		t.Errorf("start = %v", back.DateRange.StartDatetime)
	}
}

func TestUnmarshalReportErrors(t *testing.T) {
	if _, err := UnmarshalReport([]byte("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := UnmarshalReport([]byte(`{"organization-name":"x"}`)); err == nil {
		t.Error("report without id accepted")
	}
}

func TestReportValidateCatchesInconsistency(t *testing.T) {
	start, end := window()
	r := NewReport("Org", "mailto:x@y.example", "rid", start, end)
	r.AddFailure(PolicyTypeSTS, "d.example", ResultValidationFailure, "mx.d.example", 4)
	r.Policy(PolicyTypeSTS, "d.example").Summary.TotalFailureSessionCount = 99
	if err := r.Validate(); err == nil {
		t.Error("inconsistent summary accepted")
	}

	r2 := NewReport("Org", "mailto:x@y.example", "rid", end, start) // inverted window
	if err := r2.Validate(); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestReportMerge(t *testing.T) {
	start, end := window()
	a := NewReport("Org", "mailto:x@y.example", "rid-a", start, end)
	a.AddSuccess(PolicyTypeSTS, "d.example", 10)
	a.AddFailure(PolicyTypeSTS, "d.example", ResultTLSAInvalid, "mx.d.example", 1)

	b := NewReport("Org", "mailto:x@y.example", "rid-b", start, end)
	b.AddSuccess(PolicyTypeSTS, "d.example", 5)
	b.AddFailure(PolicyTypeSTS, "d.example", ResultTLSAInvalid, "mx.d.example", 2)
	b.AddSuccess(PolicyTypeNoFind, "other.example", 3)

	a.Merge(b)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	p := a.Policy(PolicyTypeSTS, "d.example")
	if p.Summary.TotalSuccessfulSessionCount != 15 || p.Summary.TotalFailureSessionCount != 3 {
		t.Errorf("merged summary = %+v", p.Summary)
	}
	if len(p.FailureDetails) != 1 || p.FailureDetails[0].FailedSessionCount != 3 {
		t.Errorf("merged details = %+v", p.FailureDetails)
	}
	if a.Policy(PolicyTypeNoFind, "other.example").Summary.TotalSuccessfulSessionCount != 3 {
		t.Error("merge dropped the second policy")
	}
}

// TestReportGolden pins the serialized shape against the RFC 8460 example
// structure (field presence and nesting, not byte equality).
func TestReportGolden(t *testing.T) {
	start, end := window()
	r := NewReport("Company-X", "mailto:sts-reporting@company-x.example", "5065427c-23d3", start, end)
	pr := r.Policy(PolicyTypeSTS, "company-y.example")
	pr.Policy.PolicyString = []string{"version: STSv1", "mode: testing", "mx: *.mail.company-y.example", "max_age: 86400"}
	pr.Policy.MXHost = []string{"*.mail.company-y.example"}
	r.AddSuccess(PolicyTypeSTS, "company-y.example", 5326)
	r.AddFailure(PolicyTypeSTS, "company-y.example", ResultCertificateExpired, "mailsecond.company-y.example", 100)

	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]interface{}
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	policies, ok := generic["policies"].([]interface{})
	if !ok || len(policies) != 1 {
		t.Fatalf("policies = %v", generic["policies"])
	}
	p0 := policies[0].(map[string]interface{})
	if _, ok := p0["policy"].(map[string]interface{})["policy-string"]; !ok {
		t.Error("policy-string missing")
	}
	summary := p0["summary"].(map[string]interface{})
	if summary["total-successful-session-count"].(float64) != 5326 {
		t.Errorf("summary = %v", summary)
	}
}

// TestErrtaxResultColumn holds errtax's TLSRPT column, the sender's one
// table of result types, to the RFC 8460 §4.3 vocabulary defined here:
// every non-empty cell, and the general failure TLSRPTResult answers
// for a code without one, is one of the ten ResultType constants.
func TestErrtaxResultColumn(t *testing.T) {
	known := map[ResultType]bool{}
	for _, r := range []ResultType{
		ResultSTARTTLSNotSupported, ResultCertificateExpired, ResultCertificateNotTrusted,
		ResultCertificateHostMismatch, ResultValidationFailure, ResultSTSPolicyFetchError,
		ResultSTSPolicyInvalid, ResultSTSWebPKIInvalid, ResultTLSAInvalid, ResultDNSSECInvalid,
	} {
		known[r] = true
	}
	for _, in := range errtax.Registry() {
		if in.TLSRPT != "" && !known[ResultType(in.TLSRPT)] {
			t.Errorf("code %q: TLSRPT column %q is not an RFC 8460 result type", in.Code, in.TLSRPT)
		}
	}
	if got := ResultType(errtax.TLSRPTResult("")); got != ResultValidationFailure {
		t.Errorf("TLSRPTResult of no code = %q, want %q", got, ResultValidationFailure)
	}
}
