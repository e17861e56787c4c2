// Package smtpclient implements the instrumented SMTP client of the
// paper's methodology (§4.1): it connects to an MX host, issues EHLO
// (falling back to HELO), checks for the STARTTLS capability, transitions
// to TLS, retrieves the server certificate, and closes without delivering
// mail. It also provides a delivering client used by the sender-MTA
// example. Both run the one client dialogue in session.go, so the prober
// and the sender agree on what an MX offers.
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
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/retry"
)

// Probe errors. NoSTARTTLS and Greylisted are taxonomy verdicts with
// fixed retry classifications: a missing STARTTLS capability is a
// persistent property of the deployment (§5.3 footnote 4) while
// greylisting is transient by definition — the §4.1 methodology
// reconnects to pass it. BadGreeting stays untyped because its
// transience depends on the wrapped cause (a torn connection
// mid-greeting retries; a hostile 554 banner does not), which the
// socket-level fallback in errtax.Transient classifies per instance.
var (
	ErrNoSTARTTLS = errtax.New(errtax.LayerProbe, errtax.CodeNoSTARTTLS, false, "smtpclient: server does not advertise STARTTLS")
	ErrGreylisted = errtax.New(errtax.LayerProbe, errtax.CodeGreylisted, true, "smtpclient: server greylisted the probe")
	//lint:ignore codes transience depends on the wrapped cause; classified per instance by errtax.Transient's fallback
	ErrBadGreeting = errors.New("smtpclient: unexpected server greeting")
)

// ProbeResult captures everything the §4.1 scan records about one MX.
type ProbeResult struct {
	Host string
	// Connected is true when the TCP connection succeeded.
	Connected bool
	// EHLOUsed is false when the server required the HELO fallback.
	EHLOUsed bool
	// STARTTLSAdvertised is true when the capability appeared in the
	// EHLO response.
	STARTTLSAdvertised bool
	// TLSEstablished is true when the handshake completed (certificate
	// verification is done separately so invalid certificates can still be
	// collected, matching the paper's methodology).
	TLSEstablished bool
	// Certificates is the presented chain (leaf first), when any.
	Certificates []*x509.Certificate
	// CertProblem is the PKIX validation outcome for Host.
	CertProblem pki.Problem
	// Greylisted marks a transient 4xx rejection at the greeting.
	Greylisted bool
	// Err holds the first fatal error encountered, if any.
	Err error
}

// Prober is the instrumented, non-delivering SMTP client.
type Prober struct {
	// HeloName is announced in EHLO/HELO; the paper uses a name matching
	// the prober's FCrDNS.
	HeloName string
	// Roots is the PKIX trust store for certificate validation.
	Roots *x509.CertPool
	// Timeout bounds the whole probe. Zero means 10s.
	Timeout time.Duration
	// Port overrides port 25 (loopback testing).
	Port int
	// AddrOverride, when set, is dialed instead of the MX host name
	// (loopback testing without real DNS).
	AddrOverride string
	// Obs, when non-nil, receives probe latencies
	// (smtp.probe.{dial,greeting,tls_handshake}.seconds) and outcome
	// counters, including smtp.probe.cert.<problem> keyed by the PKIX
	// taxonomy.
	Obs *obs.Registry
	// MaxAttempts bounds attempts per probe, retrying transient failures
	// (greylisting, socket-level errors — classified by errtax.Transient)
	// with backoff; each attempt gets a fresh Timeout. Zero or one means
	// a single attempt.
	MaxAttempts int
	// RetryBase overrides the first backoff delay (default 100ms).
	RetryBase time.Duration
}

// Probe runs the §4.1 sequence against mxHost: connect, EHLO (HELO
// fallback), STARTTLS, retrieve certificate, quit. It never sends mail.
func (p *Prober) Probe(ctx context.Context, mxHost string) ProbeResult {
	return p.ProbeAddr(ctx, mxHost, dialAddr(mxHost, p.AddrOverride, p.Port))
}

// ProbeAddr is Probe with an explicit dial address (ip:port), letting
// one shared Prober serve many hosts whose addresses the caller already
// resolved — the scanner's staged pipeline does this so MX probes can
// be deduplicated per host without building a Prober per probe. The
// certificate is still validated against mxHost.
func (p *Prober) ProbeAddr(ctx context.Context, mxHost, addr string) ProbeResult {
	sp := p.Obs.StartSpan("smtp.probe")
	var res ProbeResult
	// Do's return is the final attempt's error; assigning it back keeps
	// the reported result honest even if the retry loop someday returns
	// an error the closure never saw (budget or context shutdown).
	res.Err = retry.Policy{
		Name:        "smtp.probe",
		MaxAttempts: p.MaxAttempts,
		BaseDelay:   p.RetryBase,
		Obs:         p.Obs,
	}.Do(ctx, func(ctx context.Context) error {
		res = p.probe(ctx, mxHost, addr)
		return res.Err
	})
	sp.EndErr(res.Err)
	if p.Obs.Enabled() {
		switch {
		case !res.Connected:
			p.Obs.Counter("smtp.probe.connect_errors").Inc()
		case res.Greylisted:
			p.Obs.Counter("smtp.probe.greylisted").Inc()
		case errors.Is(res.Err, ErrNoSTARTTLS):
			p.Obs.Counter("smtp.probe.no_starttls").Inc()
		}
		if res.TLSEstablished {
			p.Obs.Counter("smtp.probe.tls_established").Inc()
			p.Obs.Counter("smtp.probe.cert." + res.CertProblem.String()).Inc()
		}
	}
	return res
}

func (p *Prober) probe(ctx context.Context, mxHost, addr string) ProbeResult {
	res := ProbeResult{Host: mxHost}
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	sess, err := open(ctx, addr, cmp.Or(p.HeloName, "prober.mtasts-repro.test"), p.Obs)
	if sess.conn == nil {
		res.Err = err
		return res
	}
	defer sess.conn.Close()
	defer sess.release()
	res.Connected, res.Greylisted = true, errors.Is(err, ErrGreylisted)
	res.EHLOUsed, res.STARTTLSAdvertised = sess.ehlo, sess.starttls
	if err == nil && !sess.offersTLS() {
		err = ErrNoSTARTTLS
	}
	if err != nil {
		res.Err = err
		return res
	}

	code, chain, err := sess.startTLS(ctx, mxHost)
	switch {
	case code != 220 && err == nil && !res.STARTTLSAdvertised:
		err = ErrNoSTARTTLS
	case code != 220 && err == nil:
		err = fmt.Errorf("smtpclient: STARTTLS rejected with code %d", code)
	case code == 220 && err != nil:
		res.CertProblem = pki.ProblemNoCertificate
		err = fmt.Errorf("smtpclient: TLS handshake with %s: %w", mxHost, err)
	}
	if err != nil {
		res.Err = err
		return res
	}
	res.TLSEstablished = true
	res.Certificates = chain

	res.CertProblem = pki.Validate(res.Certificates, mxHost, p.Roots, clock.From(ctx).Now())

	// End the session without delivering (QUIT over the TLS channel).
	//lint:ignore errdrop QUIT is best-effort courtesy; the probe verdict is already complete
	sess.text.cmd("QUIT")
	return res
}
