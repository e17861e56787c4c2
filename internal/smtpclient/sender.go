package smtpclient

import (
	"cmp"
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/pki"
)

// Sender delivers mail over SMTP with STARTTLS. It is the delivery half of
// the sender-MTA example; MTA-STS policy evaluation happens in
// mtasts.Validator before Deliver is called, and the session's own
// verdict on the MX certificate is the sender's only one.
type Sender struct {
	// HeloName is announced in EHLO/HELO.
	HeloName string
	// Roots is the PKIX trust store. Required when RequireTLS is set.
	Roots *x509.CertPool
	// RequireTLS refuses to deliver without a verified TLS session (the
	// behavior an MTA-STS enforce policy demands). When false, delivery is
	// opportunistic: TLS when offered, plaintext otherwise.
	RequireTLS bool
	// DisableTLS never negotiates STARTTLS, even when advertised — the
	// legacy plaintext-only sender of the paper's §6 population.
	// Mutually exclusive with RequireTLS (DisableTLS wins, modeling a
	// sender with no TLS stack at all).
	DisableTLS bool
	// VerifyPeer, when set, replaces PKIX verification of the server
	// chain (DANE delivery verifies against TLSA records instead of
	// Roots). It runs after the handshake; a nil return marks the
	// certificate verified.
	VerifyPeer func(chain []*x509.Certificate, host string) error
	// Timeout bounds the whole delivery. Zero means 30s.
	Timeout time.Duration
	// Port overrides port 25.
	Port int
	// AddrOverride, when set, is dialed instead of the MX host.
	AddrOverride string
}

// Delivery errors.
// Delivery verdicts are deliberately outside the scan error taxonomy:
// they describe what happened to one message on the sender path, not a
// misconfiguration of the receiving domain (which the scan codes in
// docs/ERRORS.md cover).
var (
	//lint:ignore codes delivery-path outcome, not a scan verdict
	ErrTLSRequired = errors.New("smtpclient: TLS required but unavailable or invalid")
	//lint:ignore codes delivery-path outcome, not a scan verdict
	ErrRejected = errors.New("smtpclient: server rejected the transaction")
	//lint:ignore codes delivery-path outcome, not a scan verdict
	errShortSession = errors.New("smtpclient: session ended prematurely")
)

// DeliveryResult records how a message was delivered.
type DeliveryResult struct {
	Host string
	// TLS is true when the message was sent over TLS.
	TLS bool
	// CertVerified is true when the server certificate validated for Host.
	CertVerified bool
	// Problem is the session's PKIX verdict on the MX certificate, the
	// one the Prober gives the same server: ProblemNoCertificate when the
	// STARTTLS handshake failed (also after the plaintext retry), and
	// pki.OK when the certificate verified or no handshake was tried.
	// With VerifyPeer set (DANE) the verifier's error is the verdict, and
	// Problem marks only an empty chain.
	Problem pki.Problem
}

// errHandshakeFailed marks a dead session after a failed STARTTLS
// handshake; opportunistic delivery retries in plaintext.
//
//lint:ignore codes internal control-flow marker for the plaintext retry, never escapes
var errHandshakeFailed = errors.New("smtpclient: STARTTLS handshake failed")

// Deliver sends one message to mxHost. Opportunistic senders (RequireTLS
// unset) that hit a failed STARTTLS handshake reconnect once and deliver
// in plaintext, as production MTAs do.
func (s *Sender) Deliver(ctx context.Context, mxHost, from string, to []string, data []byte) (DeliveryResult, error) {
	res, err := s.attempt(ctx, mxHost, from, to, data, !s.DisableTLS)
	if err != nil && errors.Is(err, errHandshakeFailed) && !s.RequireTLS {
		res, err = s.attempt(ctx, mxHost, from, to, data, false)
		res.Problem = pki.ProblemNoCertificate
	}
	return res, err
}

// attempt runs one SMTP session. tryTLS false skips STARTTLS (DisableTLS,
// or the plaintext retry); otherwise the session's STARTTLS rule applies.
func (s *Sender) attempt(ctx context.Context, mxHost, from string, to []string, data []byte, tryTLS bool) (DeliveryResult, error) {
	res := DeliveryResult{Host: mxHost}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	helo := cmp.Or(s.HeloName, "sender.mtasts-repro.test")
	sess, err := open(ctx, dialAddr(mxHost, s.AddrOverride, s.Port), helo, nil)
	if sess.conn != nil {
		defer sess.conn.Close()
		defer sess.release()
	}
	if err != nil {
		return res, err
	}

	var verifyErr error
	if tryTLS && sess.offersTLS() {
		code, chain, err := sess.startTLS(ctx, mxHost)
		switch {
		case code != 220:
			if s.RequireTLS {
				return res, fmt.Errorf("%w: %w", ErrTLSRequired,
					errtax.New(errtax.LayerProbe, errtax.CodeNoSTARTTLS, false,
						fmt.Sprintf("STARTTLS refused (code %d)", code)))
			}
			// Opportunistic: carry on in plaintext on this session.
		case err != nil:
			// No certificate could be evaluated: the Prober's verdict for
			// a failed handshake, no_certificate.
			if s.RequireTLS {
				return res, fmt.Errorf("%w: %w", ErrTLSRequired,
					errtax.Wrap(errtax.LayerProbe, errtax.CodeNoCertificate, false, err))
			}
			// The session is unusable after a failed handshake; signal
			// the caller to retry in plaintext.
			return res, fmt.Errorf("%w: %v", errHandshakeFailed, err)
		default:
			res.TLS = true
			switch {
			case s.VerifyPeer == nil:
				res.Problem = pki.Validate(chain, mxHost, s.Roots, clock.From(ctx).Now())
			case len(chain) == 0:
				res.Problem = pki.ProblemNoCertificate
			default:
				verifyErr = s.VerifyPeer(chain, mxHost)
			}
			res.CertVerified = res.Problem.Valid() && verifyErr == nil
			// RFC 3207: the client forgets the plaintext hello and repeats it.
			if err := sess.hello(helo); err != nil {
				return res, fmt.Errorf("%w: post-TLS hello: %v", errShortSession, err)
			}
		}
	}
	// The required-TLS gate carries the taxonomy position of what went
	// wrong: a session that never reached TLS is a stripped/missing
	// STARTTLS, an unverified one a certificate problem — the two
	// downgrade shapes the enforcement matrix distinguishes.
	if s.RequireTLS && !res.TLS {
		return res, fmt.Errorf("%w: %w", ErrTLSRequired,
			errtax.New(errtax.LayerProbe, errtax.CodeNoSTARTTLS, false, "server did not offer STARTTLS"))
	}
	if s.RequireTLS && !res.CertVerified {
		if verifyErr != nil {
			// A custom verifier's error is already typed (DANE sentinels
			// carry their own taxonomy position); keep it in the chain.
			return res, fmt.Errorf("%w: %w", ErrTLSRequired, verifyErr)
		}
		return res, fmt.Errorf("%w: %w", ErrTLSRequired,
			errtax.New(errtax.LayerProbe, res.Problem.Code(), false,
				fmt.Sprintf("certificate not verified: %s", res.Problem)))
	}

	text := sess.text
	cmds := []string{"MAIL FROM:<" + from + ">"}
	for _, rcpt := range to {
		cmds = append(cmds, "RCPT TO:<"+rcpt+">")
	}
	for _, c := range cmds {
		code, _, err := text.cmd(c)
		if err != nil {
			return res, err
		}
		if code != 250 {
			return res, fmt.Errorf("%w: %q answered %d", ErrRejected, c, code)
		}
	}
	code, _, err := text.cmd("DATA")
	if err != nil || code != 354 {
		return res, fmt.Errorf("%w: DATA answered %d (err %v)", ErrRejected, code, err)
	}
	// Dot-stuff and terminate.
	payload := dotStuff(data)
	if _, err := text.w.Write(payload); err != nil {
		return res, err
	}
	if code, _, err := text.cmd("."); err != nil || code != 250 {
		return res, fmt.Errorf("%w: final dot answered %d (err %v)", ErrRejected, code, err)
	}
	//lint:ignore errdrop QUIT is best-effort courtesy; the delivery already succeeded
	text.cmd("QUIT")
	return res, nil
}

// dotStuff prepares message data for the DATA phase: CRLF line endings and
// a doubled leading dot per RFC 5321 §4.5.2.
func dotStuff(data []byte) []byte {
	out := make([]byte, 0, len(data)+16)
	atLineStart := true
	for i := 0; i < len(data); i++ {
		c := data[i]
		if atLineStart && c == '.' {
			out = append(out, '.')
		}
		if c == '\n' && (i == 0 || data[i-1] != '\r') {
			out = append(out, '\r')
		}
		out = append(out, c)
		atLineStart = c == '\n'
	}
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\r', '\n')
	}
	return out
}
