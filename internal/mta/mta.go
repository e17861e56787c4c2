// Package mta implements a compliant outbound mail transfer agent on top
// of the reproduction's substrates: MX resolution with the RFC 5321
// implicit-MX fallback, DANE-first transport security (RFC 7672 — usable
// TLSA records take precedence over MTA-STS, the ordering §6.2 of the
// paper found some senders get wrong), MTA-STS policy enforcement with a
// TOFU cache and proactive refresh, multi-MX failover, and RFC 8460
// TLSRPT accounting. It is the engine behind examples/sendermta and
// cmd/mtasts-send, and the reference implementation of the sender
// behaviors the sendertest platform models.
package mta

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dane"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnssec"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// Delivery errors.
var (
	ErrNoRecipients = errors.New("mta: no recipients")
	ErrNoMX         = errors.New("mta: recipient domain has no MX and no address records")
	// ErrPolicyRefused: a security policy (DANE or MTA-STS enforce)
	// forbids delivery via every candidate MX.
	ErrPolicyRefused = errors.New("mta: delivery refused by transport security policy")
	ErrAllMXFailed   = errors.New("mta: every MX candidate failed")
)

// Mechanism identifies which transport-security mechanism gated a
// delivery.
type Mechanism int

// Mechanisms, in precedence order. MechanismPKIX is appended after DANE
// to keep the historical values of the first four stable.
const (
	MechanismNone Mechanism = iota
	MechanismOpportunistic
	MechanismMTASTS
	MechanismDANE
	// MechanismPKIX: no policy applied, but the operator configured the
	// sender to always require verified TLS (RequirePKIX) — stricter than
	// opportunistic, weaker than a policy because a MITM can still strip
	// the MX record itself.
	MechanismPKIX
)

// String returns a short label.
func (m Mechanism) String() string {
	switch m {
	case MechanismOpportunistic:
		return "opportunistic"
	case MechanismMTASTS:
		return "mta-sts"
	case MechanismDANE:
		return "dane"
	case MechanismPKIX:
		return "pkix"
	}
	return "none"
}

// Outcome describes one delivery attempt's result.
type Outcome struct {
	// Delivered is true when the message was accepted by an MX.
	Delivered bool
	// MXHost is the MX that accepted (or last refused) the message.
	MXHost string
	// Mechanism is the security mechanism that applied.
	Mechanism Mechanism
	// TLS and CertVerified describe the transport used.
	TLS          bool
	CertVerified bool
	// Evaluation is the MTA-STS evaluation when Mechanism is MTASTS.
	Evaluation mtasts.Evaluation
}

// Outbound is a sending MTA.
type Outbound struct {
	// DNS resolves MX/A/TLSA records.
	DNS *resolver.Client
	// Validator is the MTA-STS engine; its cache enables TOFU semantics.
	// Nil models a sender that does not implement MTA-STS: delivery is
	// opportunistic (or PKIX/DANE-gated when those are configured).
	Validator *mtasts.Validator
	// TLSDisabled models the legacy plaintext-only sender of the paper's
	// §6 population: STARTTLS is never negotiated. Do not combine with
	// Validator, DANEEnabled, or RequirePKIX.
	TLSDisabled bool
	// RequirePKIX makes every delivery demand verified TLS even without a
	// policy — the "require TLS always" sender behavior of §6.
	RequirePKIX bool
	// MTASTSOverDANE inverts the RFC 7672/8461 precedence: when an MTA-STS
	// policy is fetchable it is applied and TLSA records are never
	// consulted. This reproduces the bug-compatible senders §6.2 of the
	// paper found in the wild; compliant senders leave it false.
	MTASTSOverDANE bool
	// Roots is the PKIX trust store for MTA-STS-verified delivery.
	Roots *x509.CertPool
	// HeloName is announced in EHLO.
	HeloName string
	// SMTPPort overrides port 25.
	SMTPPort int
	// AddrOverride maps an MX host to a dial address (loopback labs).
	AddrOverride func(mxHost string) string
	// DANEEnabled turns on TLSA lookups and DANE-first precedence.
	DANEEnabled bool
	// DNSSEC, when set, performs real chain validation of TLSA RRsets via
	// the dnssec substrate; only validated ("secure") RRsets make DANE
	// applicable, per RFC 7672 §2.2.
	DNSSEC *dnssec.Validator
	// DNSSECValid is the fallback security oracle used when DNSSEC is nil:
	// it reports whether a TLSA RRset for the name would arrive
	// DNSSEC-validated; nil means "yes" (for loopback labs that model
	// signed zones without signing them).
	DNSSECValid func(name string) bool
	// Timeout bounds each network step. Zero means 10s.
	Timeout time.Duration
	// Report, when non-nil, accumulates RFC 8460 TLSRPT entries.
	Report *tlsrpt.Report
	// Obs receives mta.* metrics; nil disables them.
	Obs *obs.Registry
}

// Send delivers one message to a single recipient domain, trying MX
// candidates in preference order.
func (o *Outbound) Send(ctx context.Context, from string, to []string, data []byte) (Outcome, error) {
	if len(to) == 0 {
		return Outcome{}, ErrNoRecipients
	}
	domain, err := domainOf(to[0])
	if err != nil {
		return Outcome{}, err
	}
	for _, rcpt := range to[1:] {
		d, err := domainOf(rcpt)
		if err != nil {
			return Outcome{}, err
		}
		if d != domain {
			return Outcome{}, fmt.Errorf("mta: recipients span domains %s and %s; send separately", domain, d)
		}
	}

	mxs, err := o.candidateMXs(ctx, domain)
	if err != nil {
		return Outcome{}, err
	}

	var lastErr error
	refusals := 0
	for _, mx := range mxs {
		out, err := o.deliverVia(ctx, domain, mx, from, to, data)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if errors.Is(err, ErrPolicyRefused) {
			refusals++
			// Policy refusals apply per MX; another candidate may match.
			continue
		}
	}
	if refusals == len(mxs) && refusals > 0 {
		// Keep the last per-MX error in the chain: it carries the typed
		// errtax cause (no_starttls, self_signed, inconsistency, ...) the
		// enforcement matrix asserts on.
		return Outcome{}, fmt.Errorf("%w: all %d MX candidates: %w", ErrPolicyRefused, refusals, lastErr)
	}
	return Outcome{}, fmt.Errorf("%w: last error: %v", ErrAllMXFailed, lastErr)
}

// candidateMXs resolves the recipient's MX records sorted by preference,
// falling back to the implicit MX (the domain itself) per RFC 5321 §5.1
// when no MX exists but address records do.
func (o *Outbound) candidateMXs(ctx context.Context, domain string) ([]string, error) {
	mxs, err := o.DNS.LookupMX(ctx, domain)
	if err == nil && len(mxs) > 0 {
		out := make([]string, len(mxs))
		for i, mx := range mxs {
			out[i] = mx.Host
		}
		return out, nil
	}
	if err != nil && !resolver.IsNotFound(err) {
		return nil, fmt.Errorf("mta: resolving MX for %s: %w", domain, err)
	}
	// Implicit MX: an A/AAAA record at the apex makes the domain its own
	// mail host.
	if _, aerr := o.DNS.LookupAddrs(ctx, domain, true); aerr == nil {
		return []string{domain}, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoMX, domain)
}

// deliverVia attempts delivery through one MX, applying the DANE →
// MTA-STS → opportunistic precedence (or the inverted MTA-STS → DANE
// ordering when MTASTSOverDANE models a non-compliant sender).
func (o *Outbound) deliverVia(ctx context.Context, domain, mxHost, from string, to []string, data []byte) (Outcome, error) {
	evaluate := func() mtasts.Evaluation {
		if o.Validator == nil {
			// No MTA-STS engine: the evaluation is a pass-through deliver.
			return mtasts.Evaluation{Domain: domain, MXHost: mxHost, Action: mtasts.ActionDeliver}
		}
		return o.Validator.Validate(ctx, domain, mxHost)
	}

	var ev mtasts.Evaluation
	flipped := o.MTASTSOverDANE && o.Validator != nil
	if flipped {
		// Bug-compatible ordering: consult MTA-STS first and let a
		// fetchable policy shadow any TLSA records.
		ev = evaluate()
	}

	// DANE first for compliant senders (RFC 8461 §2: "senders who
	// implement both MUST NOT allow MTA-STS to override a DANE policy
	// failure"); flipped senders only reach it without a usable policy.
	if o.DANEEnabled && !(flipped && ev.PolicyFetched) {
		records := o.lookupTLSA(ctx, mxHost)
		if dane.Usable(records) {
			return o.deliverDANE(ctx, domain, mxHost, from, to, data, records)
		}
	}

	// MTA-STS second.
	if !flipped {
		ev = evaluate()
	}
	if ev.Action == mtasts.ActionRefuse {
		// The Validator refuses only an MX outside the policy's patterns:
		// the scanner's inconsistency verdict (policy and MX RRset
		// disagree). The certificate is the delivering session's to judge.
		o.recordFailure(tlsrpt.PolicyTypeSTS, domain, mxHost, errtax.CodeInconsistency)
		return Outcome{Evaluation: ev, MXHost: mxHost, Mechanism: MechanismMTASTS},
			fmt.Errorf("%w: MTA-STS enforce policy rejects %s: %w", ErrPolicyRefused, mxHost,
				errtax.New(errtax.LayerScan, errtax.CodeInconsistency, false,
					fmt.Sprintf("MX %s does not match any policy mx pattern", mxHost)))
	}
	requireTLS := o.RequirePKIX ||
		(ev.PolicyFetched && ev.Policy.Mode == mtasts.ModeEnforce && ev.Action == mtasts.ActionDeliver)
	sender := o.sender(mxHost)
	sender.RequireTLS = requireTLS && !o.TLSDisabled
	res, err := sender.Deliver(ctx, mxHost, from, to, data)
	mech := MechanismOpportunistic
	switch {
	case ev.PolicyFetched && ev.Policy.Mode != mtasts.ModeNone:
		mech = MechanismMTASTS
	case o.RequirePKIX:
		mech = MechanismPKIX
	case o.TLSDisabled:
		mech = MechanismNone
	}
	if err != nil {
		if requireTLS && errors.Is(err, smtpclient.ErrTLSRequired) {
			code, _ := errtax.CodeOf(err)
			o.recordFailure(policyTypeFor(mech), domain, mxHost, code)
			return Outcome{Evaluation: ev, MXHost: mxHost, Mechanism: mech},
				fmt.Errorf("%w: TLS to %s failed under required-TLS policy: %w", ErrPolicyRefused, mxHost, err)
		}
		return Outcome{}, err
	}
	if code := violation(ev, res); mech == MechanismMTASTS && code != "" {
		// Testing-mode delivery that did not meet the policy: the message
		// goes through, but RFC 8460 accounting must record the violation
		// rather than a success — this asymmetry is what makes testing
		// mode observable at all.
		o.recordFailure(tlsrpt.PolicyTypeSTS, domain, mxHost, code)
	} else {
		o.recordSuccess(policyTypeFor(mech), domain)
	}
	return Outcome{
		Delivered: true, MXHost: mxHost, Mechanism: mech,
		TLS: res.TLS, CertVerified: res.CertVerified, Evaluation: ev,
	}, nil
}

// violation returns the errtax code of what kept a delivery from meeting
// its MTA-STS policy, or "" when it met it. Only a testing-mode delivery
// can miss: an MX mismatch and unverified transport still deliver. The
// transport is judged first, as the Prober would judge the MX: no
// STARTTLS, a failed handshake, then the session's certificate verdict
// once the MX matched.
func violation(ev mtasts.Evaluation, res smtpclient.DeliveryResult) errtax.Code {
	switch {
	case !res.TLS && res.Problem.Valid():
		return errtax.CodeNoSTARTTLS
	case !res.TLS:
		return res.Problem.Code()
	case !ev.MXMatched:
		return errtax.CodeInconsistency
	case !res.CertVerified:
		return res.Problem.Code()
	}
	return ""
}

// deliverDANE delivers with the certificate verified against TLSA
// records. Its TLSRPT rows carry the recipient domain, which a shared
// provider MX's name does not reveal. A transient failure (greylisting,
// a dial failure, a timeout) reached no DANE verdict: it is a plain
// delivery error with no TLSRPT entry, so Send tries the next MX as it
// does on the MTA-STS path.
func (o *Outbound) deliverDANE(ctx context.Context, domain, mxHost, from string, to []string, data []byte, records []dane.Record) (Outcome, error) {
	sender := o.sender(mxHost)
	sender.RequireTLS = true
	sender.VerifyPeer = func(chain []*x509.Certificate, host string) error {
		return dane.Verify(records, chain)
	}
	res, err := sender.Deliver(ctx, mxHost, from, to, data)
	if errtax.Transient(err) {
		return Outcome{}, err
	}
	if err != nil {
		code, _ := errtax.CodeOf(err)
		o.recordFailure(tlsrpt.PolicyTypeTLSA, domain, mxHost, code)
		return Outcome{MXHost: mxHost, Mechanism: MechanismDANE},
			fmt.Errorf("%w: DANE validation for %s failed: %w", ErrPolicyRefused, mxHost, err)
	}
	o.recordSuccess(tlsrpt.PolicyTypeTLSA, domain)
	return Outcome{
		Delivered: true, MXHost: mxHost, Mechanism: MechanismDANE,
		TLS: res.TLS, CertVerified: res.CertVerified,
	}, nil
}

// lookupTLSA fetches the TLSA RRset for an MX host, attaching its DNSSEC
// security status: real chain validation when a dnssec.Validator is
// configured, otherwise the oracle hook.
func (o *Outbound) lookupTLSA(ctx context.Context, mxHost string) []dane.Record {
	name := dane.TLSAName(mxHost)
	var rrs []dnsmsg.RR
	var err error
	secure := true
	if o.DNSSEC != nil {
		rrs, secure, err = o.DNSSEC.SecureLookup(ctx, name, dnsmsg.TypeTLSA)
	} else {
		rrs, err = o.DNS.Lookup(ctx, name, dnsmsg.TypeTLSA)
		if o.DNSSECValid != nil {
			secure = o.DNSSECValid(name)
		}
	}
	if err != nil {
		return nil
	}
	var out []dane.Record
	for _, rr := range rrs {
		if rec, err := dane.FromRR(rr, secure); err == nil {
			out = append(out, rec)
		}
	}
	return out
}

func (o *Outbound) sender(mxHost string) *smtpclient.Sender {
	s := &smtpclient.Sender{
		HeloName:   o.HeloName,
		Roots:      o.Roots,
		Timeout:    o.timeout(),
		Port:       o.SMTPPort,
		DisableTLS: o.TLSDisabled,
	}
	if o.AddrOverride != nil {
		s.AddrOverride = o.AddrOverride(mxHost)
	}
	return s
}

func (o *Outbound) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 10 * time.Second
	}
	return o.Timeout
}

func (o *Outbound) recordSuccess(ptype tlsrpt.PolicyType, domain string) {
	if o.Report != nil {
		o.Report.AddSuccess(ptype, domain, 1)
	}
}

// recordFailure files one failed session under the RFC 8460 result type
// errtax's registry gives its code (the tlsrpt column of docs/ERRORS.md).
func (o *Outbound) recordFailure(ptype tlsrpt.PolicyType, domain, mxHost string, code errtax.Code) {
	if o.Report != nil {
		o.Report.AddFailure(ptype, domain, tlsrpt.ResultType(errtax.TLSRPTResult(code)), mxHost, 1)
	}
}

func policyTypeFor(m Mechanism) tlsrpt.PolicyType {
	switch m {
	case MechanismMTASTS:
		return tlsrpt.PolicyTypeSTS
	case MechanismDANE:
		return tlsrpt.PolicyTypeTLSA
	}
	return tlsrpt.PolicyTypeNoFind
}

// domainOf extracts the domain of an address like "user@example.com".
func domainOf(addr string) (string, error) {
	at := strings.LastIndexByte(addr, '@')
	if at <= 0 || at == len(addr)-1 {
		return "", fmt.Errorf("mta: malformed address %q", addr)
	}
	return strings.ToLower(addr[at+1:]), nil
}

// RefreshPolicies proactively revalidates cached MTA-STS policies that
// expire within the window, so send-time evaluations stay cache-hot
// (RFC 8461 §3.3: senders "SHOULD fetch the policy file at regular
// intervals"). Revalidation is in place: the cached entry is replaced
// only by a successful fetch, never evicted first, so a refresh failure
// (counted in mta.refresh.failures) leaves the old policy protecting
// deliveries instead of reopening the TLS-fallback downgrade window.
// It returns the number of domains refreshed.
func (o *Outbound) RefreshPolicies(ctx context.Context, window time.Duration) int {
	if o.Validator == nil || o.Validator.Cache == nil {
		return 0
	}
	n := 0
	for _, domain := range o.Validator.Cache.ExpiringWithin(window) {
		if err := o.Validator.Refresh(ctx, domain); err != nil {
			o.Obs.Counter("mta.refresh.failures").Inc()
			continue
		}
		n++
	}
	return n
}
