package pki

import "time"

// CertProfile is the descriptor form of a server certificate, carrying
// exactly the attributes PKIX validation inspects. The at-scale (Offline)
// scan pipeline attaches a CertProfile to every simulated TLS endpoint, and
// Validate reads a live chain into one, so both paths are judged by
// ValidateProfile alone.
type CertProfile struct {
	// Missing means no certificate is installed for the endpoint; clients
	// observe a TLS alert (ProblemNoCertificate).
	Missing bool
	// Names is the SAN/CN list; entries may use a leading "*." wildcard.
	Names []string
	// NotBefore and NotAfter bound the validity window.
	NotBefore, NotAfter time.Time
	// SelfSigned marks a self-issued leaf outside the trust store.
	SelfSigned bool
	// Untrusted marks any other chain failure: an unknown (but not
	// self-issued) issuer, a bad intermediate, or a leaf whose key usage
	// excludes server authentication.
	Untrusted bool
}

// GoodProfile returns a profile that validates for the given names in the
// window (now-1h, now+90d).
func GoodProfile(now time.Time, names ...string) CertProfile {
	return CertProfile{
		Names:     names,
		NotBefore: now.Add(-time.Hour),
		NotAfter:  now.Add(90 * 24 * time.Hour),
	}
}

// ExpiredProfile returns a profile whose validity ended before now.
func ExpiredProfile(now time.Time, names ...string) CertProfile {
	return CertProfile{
		Names:     names,
		NotBefore: now.Add(-100 * 24 * time.Hour),
		NotAfter:  now.Add(-10 * 24 * time.Hour),
	}
}

// SelfSignedProfile returns a self-issued profile for the names.
func SelfSignedProfile(now time.Time, names ...string) CertProfile {
	p := GoodProfile(now, names...)
	p.SelfSigned = true
	return p
}

// MissingProfile returns a profile for an endpoint with no certificate.
func MissingProfile() CertProfile { return CertProfile{Missing: true} }

// Covers reports whether any profile name matches host.
func (p CertProfile) Covers(host string) bool {
	for _, n := range p.Names {
		if MatchHostname(n, host) {
			return true
		}
	}
	return false
}

// ValidateProfile applies PKIX validation semantics to a descriptor and is
// the single precedence between co-occurring defects: missing, then
// self-signed, then untrusted, then outside the validity window, then
// name — so a self-signed certificate for the wrong name, or an expired
// one, reports self-signed wherever it is observed.
func ValidateProfile(p CertProfile, host string, at time.Time) Problem {
	if p.Missing {
		return ProblemNoCertificate
	}
	if p.SelfSigned {
		return ProblemSelfSigned
	}
	if p.Untrusted {
		return ProblemUntrusted
	}
	if !p.NotBefore.IsZero() && at.Before(p.NotBefore) {
		return ProblemExpired // outside validity window (not yet valid)
	}
	if !p.NotAfter.IsZero() && at.After(p.NotAfter) {
		return ProblemExpired
	}
	if !p.Covers(host) {
		return ProblemNameMismatch
	}
	return OK
}
