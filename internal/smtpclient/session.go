package smtpclient

import (
	"bufio"
	"cmp"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"github.com/netsecurelab/mtasts/internal/obs"
)

// session is the client side of one SMTP dialogue, written once: the
// Prober and the Sender both dial, greet, say EHLO/HELO and run STARTTLS
// through it, so an MX the scan rates TLS-valid is one the sender
// reaches over TLS. What a failure means stays with the caller.
type session struct {
	conn net.Conn // the TCP connection; the caller closes it
	// text reads and writes conn, or the TLS channel once startTLS
	// succeeds. Its buffers are pooled: the caller hands them back with
	// release once the dialogue is over.
	text *textConn
	// obs, when non-nil, receives the smtp.probe.{dial,greeting,
	// tls_handshake} spans; the Sender passes none.
	obs *obs.Registry
	// ehlo is true when the last hello was answered to EHLO (false: the
	// HELO fallback), starttls when that answer listed STARTTLS.
	ehlo, starttls bool
}

// dialAddr is the address a session with mxHost dials: override when
// set, else mxHost on port (25 when zero).
func dialAddr(mxHost, override string, port int) string {
	if override != "" {
		return override
	}
	return net.JoinHostPort(mxHost, strconv.Itoa(cmp.Or(port, 25)))
}

// open dials addr, reads the greeting and says hello as name; every
// read and write ends by ctx's deadline. A 220 greeting proceeds, a 4xx
// is ErrGreylisted and anything else, a torn connection included, is
// ErrBadGreeting. conn is set once the dial succeeded, whatever failed
// after it.
func open(ctx context.Context, addr, name string, o *obs.Registry) (session, error) {
	sp := o.StartSpan("smtp.probe.dial")
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	sp.EndErr(err)
	if err != nil {
		return session{}, fmt.Errorf("smtpclient: dial %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	s := session{conn: conn, text: newTextConn(conn), obs: o}
	sp = o.StartSpan("smtp.probe.greeting")
	code, _, err := s.text.readReply()
	sp.EndErr(err)
	switch {
	case err != nil:
		return s, fmt.Errorf("%w: %w", ErrBadGreeting, err)
	case code >= 400 && code < 500:
		return s, ErrGreylisted
	case code != 220:
		return s, fmt.Errorf("%w: code %d", ErrBadGreeting, code)
	}
	return s, s.hello(name)
}

// hello says EHLO and falls back to HELO on any non-250 reply, as
// net/smtp does (§4.1 footnote 3). The EHLO reply is parsed once, here:
// a line's first word is an extension keyword, compared
// case-insensitively (RFC 5321 §2.4), so "starttls" counts and
// "STARTTLSX" does not.
func (s *session) hello(name string) error {
	code, lines, err := s.text.cmd("EHLO " + name)
	if err != nil {
		return err
	}
	s.ehlo, s.starttls = code == 250, false
	if s.ehlo {
		for _, l := range lines {
			kw, _, _ := strings.Cut(strings.TrimSpace(l), " ")
			s.starttls = s.starttls || strings.EqualFold(kw, "STARTTLS")
		}
		return nil
	}
	if code, _, err = s.text.cmd("HELO " + name); err != nil || code != 250 {
		//lint:ignore codes a refused hello is a session failure, not a taxonomy verdict
		return fmt.Errorf("smtpclient: HELO failed (code %d, err %v)", code, err)
	}
	return nil
}

// release hands the session's buffers back to the pool. The session
// must not read or write after it; the caller still closes conn.
func (s *session) release() {
	if s.text != nil {
		s.text.release()
		s.text = nil
	}
}

// offersTLS is the one STARTTLS rule: send STARTTLS when the EHLO reply
// listed it, or when the HELO fallback left no list to consult.
func (s *session) offersTLS() bool { return s.starttls || !s.ehlo }

// startTLS sends STARTTLS and, on a 220, runs the one TLS handshake.
// The chain is collected unverified, valid or not; callers name it with
// pki.Validate. A code other than 220 is a refusal (0 with the error
// when the command failed); a 220 with an error is a failed handshake,
// which leaves the session dead. After the handshake the session's
// buffers are pointed at the TLS channel, and whatever plaintext the
// server sent after its 220 is discarded unread (RFC 3207 §4.2).
func (s *session) startTLS(ctx context.Context, serverName string) (int, []*x509.Certificate, error) {
	code, _, err := s.text.cmd("STARTTLS")
	if err != nil || code != 220 {
		return code, nil, err
	}
	tlsConn := tls.Client(s.conn, &tls.Config{
		ServerName:         serverName,
		InsecureSkipVerify: true,
		MinVersion:         tls.VersionTLS12,
	})
	sp := s.obs.StartSpan("smtp.probe.tls_handshake")
	err = tlsConn.HandshakeContext(ctx)
	sp.EndErr(err)
	if err != nil {
		return code, nil, err
	}
	s.text.reset(tlsConn)
	return code, tlsConn.ConnectionState().PeerCertificates, nil
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

// textConns holds idle textConns, so a scan's probes reuse their
// buffers instead of allocating them per session.
var textConns = sync.Pool{New: func() any {
	return &textConn{r: bufio.NewReaderSize(nil, maxReplyLine), w: bufio.NewWriter(nil)}
}}

// newTextConn takes a textConn from the pool and points it at conn.
func newTextConn(conn net.Conn) *textConn {
	t := textConns.Get().(*textConn)
	t.reset(conn)
	return t
}

// reset points t at conn and discards anything buffered for the
// connection it served before.
func (t *textConn) reset(conn net.Conn) {
	t.r.Reset(conn)
	t.w.Reset(conn)
}

// release returns t to the pool; t must not be used after it. Reply
// lines stay valid: readReply copies them out of the buffer.
func (t *textConn) release() {
	t.reset(nil)
	textConns.Put(t)
}

// cmd sends one command and reads the (possibly multiline) reply.
func (t *textConn) cmd(line string) (int, []string, error) {
	if _, err := t.w.WriteString(line); err != nil {
		return 0, nil, err
	}
	if _, err := t.w.WriteString("\r\n"); err != nil {
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
		lines = append(lines, raw[min(4, len(raw)):])
		if len(raw) < 4 || raw[3] != '-' {
			return code, lines, nil
		}
	}
	//lint:ignore codes malformed SMTP reply: like ErrBadGreeting, classified per instance by the socket fallback
	return 0, nil, fmt.Errorf("smtpclient: reply over %d lines", maxReplyLines)
}
