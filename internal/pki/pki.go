// Package pki is the web-PKI substrate for the MTA-STS reproduction. It
// plays the role the public certificate ecosystem plays for the paper: it
// can mint real X.509 certificates (a test CA standing in for ACME issuers)
// for the live servers, and it defines the PKIX validation error taxonomy
// the study reports on (expired, self-signed, name mismatch, untrusted
// chain, missing certificate — Figures 5 and 6).
//
// Because generating millions of real certificates is infeasible, the
// at-scale pipeline uses CertProfile, a descriptor carrying exactly the
// attributes PKIX validation inspects. ValidateProfile is the one place a
// Problem is decided; Validate reads a presented chain into a CertProfile
// and returns ValidateProfile's verdict, so the policy fetch, the MX probe,
// the sender and the offline pipeline all name a certificate the same way.
package pki

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/strutil"
)

// Problem identifies why PKIX validation failed. The zero value means the
// certificate validated.
type Problem int

// Validation outcomes, mirroring the paper's error categories.
const (
	// OK: the certificate chain validates and covers the host name.
	OK Problem = iota
	// ProblemExpired: the certificate is outside its validity window.
	ProblemExpired
	// ProblemSelfSigned: the leaf is self-issued and not in the trust store.
	ProblemSelfSigned
	// ProblemUntrusted: the chain does not lead to a trusted root.
	ProblemUntrusted
	// ProblemNameMismatch: no SAN/CN entry covers the host
	// ("Common Name or Subject Alternative Name mismatch" in §4.3.3).
	ProblemNameMismatch
	// ProblemNoCertificate: the server has no certificate installed for the
	// name (observed as a TLS alert; the DMARCReport case in §4.3.3).
	ProblemNoCertificate
)

// String returns a short stable identifier for the problem.
func (p Problem) String() string {
	switch p {
	case OK:
		return "ok"
	case ProblemExpired:
		return "expired"
	case ProblemSelfSigned:
		return "self-signed"
	case ProblemUntrusted:
		return "untrusted"
	case ProblemNameMismatch:
		return "name-mismatch"
	case ProblemNoCertificate:
		return "no-certificate"
	}
	return fmt.Sprintf("problem(%d)", int(p))
}

// Valid reports whether the outcome is OK.
func (p Problem) Valid() bool { return p == OK }

// Code positions a failed validation in the scan error taxonomy; OK and
// ProblemNoCertificate both map to CodeNoCertificate.
func (p Problem) Code() errtax.Code {
	switch p {
	case ProblemExpired:
		return errtax.CodeExpired
	case ProblemSelfSigned:
		return errtax.CodeSelfSigned
	case ProblemUntrusted:
		return errtax.CodeUntrustedChain
	case ProblemNameMismatch:
		return errtax.CodeNameMismatch
	}
	return errtax.CodeNoCertificate
}

// CA is a certificate authority that can issue leaf certificates for the
// live substrate servers.
type CA struct {
	Cert *x509.Certificate
	Key  *ecdsa.PrivateKey

	mu     sync.Mutex
	serial int64
}

// NewCA creates a self-signed root CA valid for ten years either side of
// now. Like a real root it predates every leaf it signs, so a leaf that
// expired (or was backdated) still chains to a valid root at the instants
// inside its own window, where Validate judges the chain.
func NewCA(name string, now time.Time) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name, Organization: []string{"MTA-STS Repro Test CA"}},
		NotBefore:             now.AddDate(-10, 0, 0),
		NotAfter:              now.AddDate(10, 0, 0),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("pki: self-signing CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{Cert: cert, Key: key, serial: 1}, nil
}

// Pool returns a certificate pool containing only this CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.Cert)
	return pool
}

// IssueOptions controls leaf issuance.
type IssueOptions struct {
	// Names is the SAN list; the first entry also becomes the CN.
	Names []string
	// NotBefore/NotAfter bound validity; zero values default to
	// (now-1h, now+90d).
	NotBefore, NotAfter time.Time
	// SelfSigned issues the leaf signed by its own key instead of the CA.
	SelfSigned bool
	// Now anchors the defaults.
	Now time.Time
}

// Leaf is an issued certificate with its private key, ready for use in a
// tls.Config.
type Leaf struct {
	Cert *x509.Certificate
	Key  *ecdsa.PrivateKey
	// DER is the raw certificate.
	DER []byte
}

// TLSCertificate converts the leaf into a tls.Certificate.
func (l *Leaf) TLSCertificate() tls.Certificate {
	return tls.Certificate{Certificate: [][]byte{l.DER}, PrivateKey: l.Key, Leaf: l.Cert}
}

// Issue creates a leaf certificate per opts.
func (ca *CA) Issue(opts IssueOptions) (*Leaf, error) {
	if len(opts.Names) == 0 {
		return nil, errors.New("pki: issue with no names")
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	nb, na := opts.NotBefore, opts.NotAfter
	if nb.IsZero() {
		nb = now.Add(-time.Hour)
	}
	if na.IsZero() {
		na = now.Add(90 * 24 * time.Hour)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating leaf key: %w", err)
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: opts.Names[0]},
		DNSNames:     opts.Names,
		NotBefore:    nb,
		NotAfter:     na,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
	parent, signKey := ca.Cert, ca.Key
	if opts.SelfSigned {
		parent, signKey = tmpl, key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, &key.PublicKey, signKey)
	if err != nil {
		return nil, fmt.Errorf("pki: signing leaf for %v: %w", opts.Names, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, Key: key, DER: der}, nil
}

// Validate verifies a presented chain against roots for host at the given
// time and maps the result onto the Problem taxonomy: the leaf is read into
// a CertProfile and ValidateProfile decides, so co-occurring defects are
// ranked in the descriptor's order.
func Validate(chain []*x509.Certificate, host string, roots *x509.CertPool, at time.Time) Problem {
	if len(chain) == 0 {
		return ProblemNoCertificate
	}
	return ValidateProfile(profileOf(chain, roots, at), host, at)
}

// profileOf summarises a presented chain as a descriptor. Trust comes from
// one x509 verification for server authentication at `at` clamped into the
// leaf's own window, so an expired leaf cannot hide a bad chain; the window
// and the name are ValidateProfile's to judge. An unknown authority over a
// self-issued leaf is self-signed; any other chain error (an expired
// intermediate, an incompatible key usage) is untrusted.
func profileOf(chain []*x509.Certificate, roots *x509.CertPool, at time.Time) CertProfile {
	leaf := chain[0]
	p := CertProfile{Names: leaf.DNSNames, NotBefore: leaf.NotBefore, NotAfter: leaf.NotAfter}
	if at.Before(leaf.NotBefore) {
		at = leaf.NotBefore
	} else if at.After(leaf.NotAfter) {
		at = leaf.NotAfter
	}
	var inter *x509.CertPool
	if len(chain) > 1 {
		inter = x509.NewCertPool()
		for _, c := range chain[1:] {
			inter.AddCert(c)
		}
	}
	_, err := leaf.Verify(x509.VerifyOptions{Roots: roots, Intermediates: inter, CurrentTime: at})
	var unknown x509.UnknownAuthorityError
	switch {
	case err == nil:
	case errors.As(err, &unknown) && bytes.Equal(leaf.RawSubject, leaf.RawIssuer):
		p.SelfSigned = true
	default:
		p.Untrusted = true
	}
	return p
}

// MatchHostname implements the RFC 6125 name matching MTA-STS relies on:
// an exact case-insensitive match, or a pattern whose leftmost label is "*"
// matching exactly one label. It is shared by the descriptor validator and
// by mx-pattern matching semantics tests.
func MatchHostname(pattern, host string) bool {
	pattern = strutil.CanonicalName(pattern)
	host = strutil.CanonicalName(host)
	if pattern == "" || host == "" {
		return false
	}
	if !strings.HasPrefix(pattern, "*.") {
		return pattern == host
	}
	rest := pattern[2:]
	i := strings.IndexByte(host, '.')
	if i < 0 {
		return false
	}
	return host[i+1:] == rest
}
