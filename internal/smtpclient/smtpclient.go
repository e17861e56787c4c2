// Package smtpclient implements the instrumented SMTP client of the
// paper's methodology (§4.1): it connects to an MX host, issues EHLO
// (falling back to HELO), checks for the STARTTLS capability, transitions
// to TLS, retrieves the server certificate, and closes without delivering
// mail. It also provides a delivering client used by the sender-MTA
// example.
package smtpclient

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

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
	// Now anchors certificate validation; nil means time.Now.
	Now func() time.Time
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
	// RetryBudget, when non-nil, caps total retries across the run.
	RetryBudget *retry.Budget
}

// Probe runs the §4.1 sequence against mxHost: connect, EHLO (HELO
// fallback), STARTTLS, retrieve certificate, quit. It never sends mail.
func (p *Prober) Probe(ctx context.Context, mxHost string) ProbeResult {
	return p.ProbeAddr(ctx, mxHost, p.dialAddr(mxHost))
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
		Budget:      p.RetryBudget,
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

	dialSpan := p.Obs.StartSpan("smtp.probe.dial")
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	dialSpan.EndErr(err)
	if err != nil {
		res.Err = fmt.Errorf("smtpclient: dial %s: %w", addr, err)
		return res
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	res.Connected = true

	text := newTextConn(conn)

	// Greeting.
	greetSpan := p.Obs.StartSpan("smtp.probe.greeting")
	code, _, err := text.readReply()
	greetSpan.EndErr(err)
	if err != nil {
		res.Err = fmt.Errorf("%w: %w", ErrBadGreeting, err)
		return res
	}
	if code >= 400 && code < 500 {
		res.Greylisted = true
		res.Err = ErrGreylisted
		return res
	}
	if code != 220 {
		res.Err = fmt.Errorf("%w: code %d", ErrBadGreeting, code)
		return res
	}

	// EHLO with HELO fallback (§4.1 footnote 3).
	helo := p.HeloName
	if helo == "" {
		helo = "prober.mtasts-repro.test"
	}
	code, lines, err := text.cmd("EHLO " + helo)
	if err != nil {
		res.Err = err
		return res
	}
	if code == 250 {
		res.EHLOUsed = true
		for _, l := range lines {
			if strings.EqualFold(strings.Fields(l + " ")[0], "STARTTLS") {
				res.STARTTLSAdvertised = true
			}
		}
	} else {
		code, _, err = text.cmd("HELO " + helo)
		if err != nil || code != 250 {
			res.Err = fmt.Errorf("smtpclient: HELO failed (code %d, err %v)", code, err)
			return res
		}
		// HELO offers no capability list; try STARTTLS anyway below.
	}

	// STARTTLS.
	code, _, err = text.cmd("STARTTLS")
	if err != nil {
		res.Err = err
		return res
	}
	if code != 220 {
		if !res.STARTTLSAdvertised {
			res.Err = ErrNoSTARTTLS
		} else {
			res.Err = fmt.Errorf("smtpclient: STARTTLS rejected with code %d", code)
		}
		return res
	}

	// Handshake with verification disabled so invalid certificates can be
	// collected; classification happens below against p.Roots.
	tlsConn := tls.Client(conn, &tls.Config{
		ServerName:         mxHost,
		InsecureSkipVerify: true,
		MinVersion:         tls.VersionTLS12,
	})
	tlsSpan := p.Obs.StartSpan("smtp.probe.tls_handshake")
	if err := tlsConn.HandshakeContext(ctx); err != nil {
		tlsSpan.EndErr(err)
		res.Err = fmt.Errorf("smtpclient: TLS handshake with %s: %w", mxHost, err)
		res.CertProblem = pki.ProblemNoCertificate
		return res
	}
	tlsSpan.End()
	res.TLSEstablished = true
	res.Certificates = tlsConn.ConnectionState().PeerCertificates

	now := time.Now()
	if p.Now != nil {
		now = p.Now()
	}
	res.CertProblem = pki.Validate(res.Certificates, mxHost, p.Roots, now)

	// End the session without delivering (QUIT over the TLS channel).
	tlsText := newTextConn(tlsConn)
	//lint:ignore errdrop QUIT is best-effort courtesy; the probe verdict is already complete
	tlsText.cmd("QUIT")
	return res
}

func (p *Prober) dialAddr(mxHost string) string {
	if p.AddrOverride != "" {
		return p.AddrOverride
	}
	port := 25
	if p.Port != 0 {
		port = p.Port
	}
	return net.JoinHostPort(mxHost, strconv.Itoa(port))
}

// VerifyMX adapts Probe to the mtasts.MXVerifier interface: it returns the
// PKIX problem for the host, with connection-level failures mapped to
// ProblemNoCertificate (no TLS identity could be obtained).
func (p *Prober) VerifyMX(ctx context.Context, mxHost string) (pki.Problem, error) {
	res := p.Probe(ctx, mxHost)
	if !res.Connected {
		return pki.ProblemNoCertificate, res.Err
	}
	if !res.TLSEstablished {
		return pki.ProblemNoCertificate, nil
	}
	return res.CertProblem, nil
}

// maxReplyLine and maxReplyLines cap what one SMTP reply can make a
// client hold, whatever the server streams: RFC 5321 §4.5.3.1.5 sets
// the reply line at 512 octets, and no real EHLO response comes near
// 128 lines.
const (
	maxReplyLine  = 4096
	maxReplyLines = 128
)

// textConn is a minimal SMTP reply reader/writer. Its read buffer is
// maxReplyLine bytes, which is what bounds a reply line.
type textConn struct {
	r *bufio.Reader
	w *bufio.Writer
}

func newTextConn(conn net.Conn) *textConn {
	return &textConn{r: bufio.NewReaderSize(conn, maxReplyLine), w: bufio.NewWriter(conn)}
}

// cmd sends one command and reads the (possibly multiline) reply.
func (t *textConn) cmd(line string) (int, []string, error) {
	if _, err := t.w.WriteString(line + "\r\n"); err != nil {
		return 0, nil, err
	}
	if err := t.w.Flush(); err != nil {
		return 0, nil, err
	}
	return t.readReply()
}

// readReply parses an SMTP reply, handling "250-" continuation lines. It
// returns the code and the text of each line (without the code prefix).
// A line over maxReplyLine bytes or a reply over maxReplyLines lines is
// an error, so a hostile server cannot grow the reply without bound.
func (t *textConn) readReply() (int, []string, error) {
	var lines []string
	for len(lines) < maxReplyLines {
		line, err := t.r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			//lint:ignore codes malformed SMTP reply: like ErrBadGreeting, classified per instance by the socket fallback
			return 0, nil, fmt.Errorf("smtpclient: reply line over %d bytes", maxReplyLine)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("smtpclient: reading reply: %w", err)
		}
		raw := strings.TrimRight(string(line), "\r\n")
		if len(raw) < 3 {
			//lint:ignore codes malformed SMTP reply: like ErrBadGreeting, classified per instance by the socket fallback
			return 0, nil, fmt.Errorf("smtpclient: short reply %q", raw)
		}
		code, err := strconv.Atoi(raw[:3])
		if err != nil {
			//lint:ignore codes malformed SMTP reply: like ErrBadGreeting, classified per instance by the socket fallback
			return 0, nil, fmt.Errorf("smtpclient: bad reply code in %q", raw)
		}
		rest := ""
		more := false
		if len(raw) > 3 {
			more = raw[3] == '-'
			rest = raw[4:]
		}
		lines = append(lines, rest)
		if !more {
			return code, lines, nil
		}
	}
	//lint:ignore codes malformed SMTP reply: like ErrBadGreeting, classified per instance by the socket fallback
	return 0, nil, fmt.Errorf("smtpclient: reply over %d lines", maxReplyLines)
}
