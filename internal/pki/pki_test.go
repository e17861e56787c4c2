package pki

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"
)

var testNow = time.Date(2024, 9, 29, 12, 0, 0, 0, time.UTC)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("Test Root", testNow)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func TestIssueAndValidateOK(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(IssueOptions{Names: []string{"mta-sts.example.com"}, Now: testNow})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	got := Validate([]*x509.Certificate{leaf.Cert}, "mta-sts.example.com", ca.Pool(), testNow)
	if got != OK {
		t.Errorf("Validate = %v, want OK", got)
	}
}

func TestValidateNameMismatch(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(IssueOptions{Names: []string{"www.example.com"}, Now: testNow})
	if err != nil {
		t.Fatal(err)
	}
	got := Validate([]*x509.Certificate{leaf.Cert}, "mta-sts.example.com", ca.Pool(), testNow)
	if got != ProblemNameMismatch {
		t.Errorf("Validate = %v, want name-mismatch", got)
	}
}

func TestValidateExpired(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(IssueOptions{
		Names:     []string{"mta-sts.example.com"},
		NotBefore: testNow.Add(-100 * 24 * time.Hour),
		NotAfter:  testNow.Add(-24 * time.Hour),
		Now:       testNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := Validate([]*x509.Certificate{leaf.Cert}, "mta-sts.example.com", ca.Pool(), testNow)
	if got != ProblemExpired {
		t.Errorf("Validate = %v, want expired", got)
	}
}

func TestValidateSelfSigned(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(IssueOptions{Names: []string{"mta-sts.example.com"}, SelfSigned: true, Now: testNow})
	if err != nil {
		t.Fatal(err)
	}
	got := Validate([]*x509.Certificate{leaf.Cert}, "mta-sts.example.com", ca.Pool(), testNow)
	if got != ProblemSelfSigned {
		t.Errorf("Validate = %v, want self-signed", got)
	}
}

func TestValidateUntrusted(t *testing.T) {
	ca := newTestCA(t)
	other, err := NewCA("Other Root", testNow)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := other.Issue(IssueOptions{Names: []string{"mta-sts.example.com"}, Now: testNow})
	if err != nil {
		t.Fatal(err)
	}
	got := Validate([]*x509.Certificate{leaf.Cert}, "mta-sts.example.com", ca.Pool(), testNow)
	if got != ProblemUntrusted {
		t.Errorf("Validate = %v, want untrusted", got)
	}
}

func TestValidateNoCertificate(t *testing.T) {
	ca := newTestCA(t)
	if got := Validate(nil, "x.example.com", ca.Pool(), testNow); got != ProblemNoCertificate {
		t.Errorf("Validate(nil) = %v", got)
	}
}

func TestWildcardCertificate(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(IssueOptions{Names: []string{"*.example.com"}, Now: testNow})
	if err != nil {
		t.Fatal(err)
	}
	if got := Validate([]*x509.Certificate{leaf.Cert}, "mta-sts.example.com", ca.Pool(), testNow); got != OK {
		t.Errorf("wildcard host = %v, want OK", got)
	}
	if got := Validate([]*x509.Certificate{leaf.Cert}, "a.b.example.com", ca.Pool(), testNow); got != ProblemNameMismatch {
		t.Errorf("deep host under wildcard = %v, want name-mismatch", got)
	}
}

func TestMatchHostname(t *testing.T) {
	cases := []struct {
		pattern, host string
		want          bool
	}{
		{"example.com", "example.com", true},
		{"Example.COM", "example.com.", true},
		{"example.com", "www.example.com", false},
		{"*.example.com", "mail.example.com", true},
		{"*.example.com", "example.com", false},
		{"*.example.com", "a.b.example.com", false},
		{"mail.*.com", "mail.example.com", false}, // wildcard only leftmost
		{"", "example.com", false},
		{"example.com", "", false},
		{"*.", "x.", false},
	}
	for _, c := range cases {
		if got := MatchHostname(c.pattern, c.host); got != c.want {
			t.Errorf("MatchHostname(%q, %q) = %v, want %v", c.pattern, c.host, got, c.want)
		}
	}
}

func TestProfileValidatorTaxonomy(t *testing.T) {
	host := "mta-sts.example.com"
	cases := []struct {
		name string
		p    CertProfile
		want Problem
	}{
		{"good", GoodProfile(testNow, host), OK},
		{"good wildcard", GoodProfile(testNow, "*.example.com"), OK},
		{"missing", MissingProfile(), ProblemNoCertificate},
		{"expired", ExpiredProfile(testNow, host), ProblemExpired},
		{"not yet valid", CertProfile{Names: []string{host},
			NotBefore: testNow.Add(24 * time.Hour), NotAfter: testNow.Add(48 * time.Hour)}, ProblemExpired},
		{"self-signed", SelfSignedProfile(testNow, host), ProblemSelfSigned},
		{"untrusted", CertProfile{Names: []string{host}, Untrusted: true,
			NotBefore: testNow.Add(-time.Hour), NotAfter: testNow.Add(time.Hour)}, ProblemUntrusted},
		{"name mismatch", GoodProfile(testNow, "www.example.com"), ProblemNameMismatch},
		{"self-signed wrong name reports self-signed", SelfSignedProfile(testNow, "other.example.net"), ProblemSelfSigned},
		{"expired self-signed reports self-signed", func() CertProfile {
			p := ExpiredProfile(testNow, host)
			p.SelfSigned = true
			return p
		}(), ProblemSelfSigned},
		{"expired untrusted reports untrusted", func() CertProfile {
			p := ExpiredProfile(testNow, host)
			p.Untrusted = true
			return p
		}(), ProblemUntrusted},
		{"expired wrong name reports expired", ExpiredProfile(testNow, "www.example.com"), ProblemExpired},
	}
	for _, c := range cases {
		if got := ValidateProfile(c.p, host, testNow); got != c.want {
			t.Errorf("%s: ValidateProfile = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTLSHandshakeClassification drives a real TLS handshake and checks
// that Validate names the chain crypto/tls rejected.
func TestTLSHandshakeClassification(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(IssueOptions{Names: []string{"mta-sts.example.com"}, SelfSigned: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{leaf.TLSCertificate()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				tc := c.(*tls.Conn)
				tc.Handshake()
				tc.Close()
			}(conn)
		}
	}()
	conn, err := tls.Dial("tcp", ln.Addr().String(), &tls.Config{
		RootCAs:    ca.Pool(),
		ServerName: "mta-sts.example.com",
	})
	if err == nil {
		conn.Close()
		t.Fatal("handshake with self-signed cert unexpectedly succeeded")
	}
	var cve *tls.CertificateVerificationError
	if !errors.As(err, &cve) {
		t.Fatalf("handshake error %v is not a certificate verification error", err)
	}
	if got := Validate(cve.UnverifiedCertificates, "mta-sts.example.com", ca.Pool(), time.Now()); got != ProblemSelfSigned {
		t.Errorf("Validate = %v (err=%v), want self-signed", got, err)
	}
}

func TestIssueRejectsNoNames(t *testing.T) {
	ca := newTestCA(t)
	if _, err := ca.Issue(IssueOptions{}); err == nil {
		t.Error("Issue with no names should fail")
	}
}

func TestProblemString(t *testing.T) {
	for p, want := range map[Problem]string{
		OK: "ok", ProblemExpired: "expired", ProblemSelfSigned: "self-signed",
		ProblemUntrusted: "untrusted", ProblemNameMismatch: "name-mismatch",
		ProblemNoCertificate: "no-certificate", Problem(99): "problem(99)",
	} {
		if p.String() != want {
			t.Errorf("Problem(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if !OK.Valid() || ProblemExpired.Valid() {
		t.Error("Valid() mismatch")
	}
}

// Property: MatchHostname is reflexive for plain names (no wildcard).
func TestMatchHostnameReflexive(t *testing.T) {
	f := func(s string) bool {
		if s == "" || s[0] == '*' {
			return true
		}
		return MatchHostname(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
