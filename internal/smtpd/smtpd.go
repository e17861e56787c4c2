// Package smtpd implements a minimal SMTP server (RFC 5321 subset) with the
// STARTTLS extension (RFC 3207). It is the MX-host substrate of the
// reproduction: the scanner's instrumented client connects to these servers
// to check STARTTLS support and collect certificates, and the sender-MTA
// example delivers mail through them. Failure injection covers the
// behaviors the paper measures: no STARTTLS, bad certificates, greylisting.
package smtpd

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/faults"
)

// Behavior controls how the server advertises and performs STARTTLS.
type Behavior struct {
	// Hostname is announced in the banner and EHLO response.
	Hostname string
	// Certificate is presented on STARTTLS. Nil with STARTTLS advertised
	// causes a handshake failure (the "no certificate installed" case).
	Certificate *tls.Certificate
	// DisableSTARTTLS hides the capability and rejects the command.
	DisableSTARTTLS bool
	// DisableEHLO forces clients to fall back to HELO (the paper's
	// instrumented client implements this fallback).
	DisableEHLO bool
	// Greylist rejects the first attempt from every client address with a
	// transient 451 (the greylisting interference noted in §4.1).
	Greylist bool
	// AcceptMail, when true, accepts MAIL/RCPT/DATA; otherwise the server
	// still answers but the scanner never sends mail anyway.
	AcceptMail bool
	// RejectAll responds 554 to all mail commands (the Tutanota
	// discontinued-customer behavior of §5).
	RejectAll bool
}

// What one client can make a session hold, whatever it streams: a line
// of maxLineBytes (smtpclient's reply-line cap; RFC 5321 §4.5.3.1 asks
// for 1000) and a message of maxMessageBytes. Past either the session is
// answered 500 / 552 and closed.
const (
	maxLineBytes    = 4096
	maxMessageBytes = 1 << 20
)

var errMessageTooBig = errors.New("smtpd: message over maxMessageBytes")

// Message is a mail object accepted by the server.
type Message struct {
	From string
	To   []string
	Data []byte
	// TLS reports whether the message arrived over a TLS session.
	TLS bool
}

// Server is a minimal SMTP server.
type Server struct {
	behavior Behavior

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	mu        sync.Mutex
	seen      map[string]bool // greylist memory, by remote IP
	messages  []Message
	connCount int
	faults    *faults.Injector
	adversary *faults.Adversary
}

// New creates a server with the given behavior.
func New(b Behavior) *Server {
	if b.Hostname == "" {
		b.Hostname = "mx.invalid"
	}
	return &Server{behavior: b, closed: make(chan struct{}), seen: make(map[string]bool)}
}

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("smtpd: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.serve()
	return ln.Addr(), nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the server.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Messages returns the mail accepted so far.
func (s *Server) Messages() []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Message(nil), s.messages...)
}

// ConnCount returns the number of connections handled.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connCount
}

// SetBehavior replaces the server behavior (e.g. to rotate certificates).
func (s *Server) SetBehavior(b Behavior) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Hostname == "" {
		b.Hostname = s.behavior.Hostname
	}
	s.behavior = b
}

func (s *Server) getBehavior() Behavior {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.behavior
}

// SetFaults installs a per-connection fault injector, keyed by the
// server's announced hostname, realizing added latency and
// pre-greeting connection resets from its seeded plan. Nil removes it.
func (s *Server) SetFaults(inj *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = inj
}

func (s *Server) getFaults() *faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// SetAdversary installs an on-path attacker for this MX, keyed by the
// announced hostname: per its scenario it strips STARTTLS from the
// session (capability hidden, command rejected) or swaps the presented
// certificate for the attacker's. Nil removes it.
func (s *Server) SetAdversary(adv *faults.Adversary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adversary = adv
}

func (s *Server) getAdversary() *faults.Adversary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adversary
}

func (s *Server) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			return
		}
		s.mu.Lock()
		s.connCount++
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.session(conn)
		}()
	}
}

type session struct {
	srv    *Server
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	tls    bool
	helo   string
	from   string
	rcpts  []string
	closed bool
}

func (s *Server) session(conn net.Conn) {
	b := s.getBehavior()
	// The adversary tampers with the session-local behavior copy, never
	// the configured one: removing it restores the honest server. A
	// stripped session behaves exactly like a no-STARTTLS server (the
	// MITM filters the capability and intercepts the command); a swapped
	// certificate flows into upgradeTLS unchanged.
	if v := s.getAdversary().SMTP(b.Hostname); v.StripSTARTTLS || v.Cert != nil {
		if v.StripSTARTTLS {
			b.DisableSTARTTLS = true
		}
		if v.Cert != nil {
			b.Certificate = v.Cert
		}
	}
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	sess := &session{
		srv:  s,
		conn: conn,
		r:    bufio.NewReaderSize(conn, maxLineBytes),
		w:    bufio.NewWriter(conn),
	}
	// Injected connection faults come before any protocol exchange: the
	// client sees a silent close (reset) instead of a greeting — the
	// transient failure shape a retry should clear.
	act, delay := s.getFaults().Conn("smtpd", b.Hostname)
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-s.closed:
			return
		}
	}
	if act == faults.ConnReset {
		return
	}
	if b.Greylist && !s.greylistPass(conn) {
		sess.reply(451, "4.7.1 greylisted, try again later")
		return
	}
	sess.reply(220, b.Hostname+" ESMTP mtasts-repro")
	for !sess.closed {
		line, err := sess.readLine()
		if err != nil {
			return
		}
		verb, arg := splitVerb(line)
		switch verb {
		case "EHLO":
			if b.DisableEHLO {
				sess.reply(502, "5.5.1 EHLO not supported")
				continue
			}
			sess.helo = arg
			exts := []string{b.Hostname + " greets " + arg, "PIPELINING", "8BITMIME"}
			if !b.DisableSTARTTLS && !sess.tls {
				exts = append(exts, "STARTTLS")
			}
			sess.replyMulti(250, exts)
		case "HELO":
			sess.helo = arg
			sess.reply(250, b.Hostname+" greets "+arg)
		case "STARTTLS":
			if b.DisableSTARTTLS {
				sess.reply(502, "5.5.1 STARTTLS not supported")
				continue
			}
			if sess.tls {
				sess.reply(503, "5.5.1 already in TLS")
				continue
			}
			sess.reply(220, "2.0.0 ready to start TLS")
			if !sess.upgradeTLS(b) {
				return
			}
		case "MAIL":
			if b.RejectAll {
				sess.reply(554, "5.7.1 mail service discontinued")
				continue
			}
			sess.from = strings.TrimPrefix(arg, "FROM:")
			sess.rcpts = nil
			sess.reply(250, "2.1.0 ok")
		case "RCPT":
			if b.RejectAll {
				sess.reply(554, "5.7.1 mail service discontinued")
				continue
			}
			if sess.from == "" {
				sess.reply(503, "5.5.1 MAIL first")
				continue
			}
			sess.rcpts = append(sess.rcpts, strings.TrimPrefix(arg, "TO:"))
			sess.reply(250, "2.1.5 ok")
		case "DATA":
			if b.RejectAll || !b.AcceptMail {
				sess.reply(554, "5.7.1 transaction not accepted")
				continue
			}
			if len(sess.rcpts) == 0 {
				sess.reply(503, "5.5.1 RCPT first")
				continue
			}
			sess.reply(354, "end with <CRLF>.<CRLF>")
			data, err := sess.readData()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.messages = append(s.messages, Message{
				From: sess.from, To: sess.rcpts, Data: data, TLS: sess.tls,
			})
			s.mu.Unlock()
			sess.from, sess.rcpts = "", nil
			sess.reply(250, "2.0.0 accepted")
		case "NOOP":
			sess.reply(250, "2.0.0 ok")
		case "RSET":
			sess.from, sess.rcpts = "", nil
			sess.reply(250, "2.0.0 flushed")
		case "QUIT":
			sess.reply(221, "2.0.0 bye")
			sess.closed = true
		default:
			sess.reply(500, "5.5.2 unrecognized command")
		}
	}
}

// greylistPass records the remote IP and reports whether it has connected
// before.
func (s *Server) greylistPass(conn net.Conn) bool {
	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		host = conn.RemoteAddr().String()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[host] {
		return true
	}
	s.seen[host] = true
	return false
}

func (sess *session) upgradeTLS(b Behavior) bool {
	if err := sess.w.Flush(); err != nil {
		return false
	}
	conf := &tls.Config{MinVersion: tls.VersionTLS12}
	if b.Certificate != nil {
		conf.Certificates = []tls.Certificate{*b.Certificate}
	} else {
		// No certificate installed: fail the handshake with an alert, as a
		// misconfigured server would.
		conf.GetCertificate = func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			return nil, errors.New("no certificate configured")
		}
	}
	tlsConn := tls.Server(sess.conn, conf)
	if err := tlsConn.Handshake(); err != nil {
		return false
	}
	sess.conn = tlsConn
	sess.r = bufio.NewReaderSize(tlsConn, maxLineBytes)
	sess.w = bufio.NewWriter(tlsConn)
	sess.tls = true
	sess.helo, sess.from, sess.rcpts = "", "", nil // RFC 3207: reset state
	return true
}

// readLine reads one line without its terminator. The read buffer is
// maxLineBytes, which is what bounds a line; any error ends the session.
func (sess *session) readLine() (string, error) {
	line, err := sess.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		sess.reply(500, "5.5.2 line too long")
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}

// readData consumes a DATA payload up to the dot terminator.
func (sess *session) readData() ([]byte, error) {
	var out []byte
	for {
		line, err := sess.readLine()
		if err != nil {
			return nil, err
		}
		if line == "." {
			return out, nil
		}
		// Dot-unstuffing per RFC 5321 §4.5.2.
		line = strings.TrimPrefix(line, ".")
		if len(out)+len(line)+1 > maxMessageBytes {
			sess.reply(552, "5.3.4 message too big")
			return nil, errMessageTooBig
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
}

func (sess *session) reply(code int, text string) {
	fmt.Fprintf(sess.w, "%d %s\r\n", code, text)
	//lint:ignore errdrop a failed reply means the client hung up; the session loop sees it on the next read
	sess.w.Flush()
}

func (sess *session) replyMulti(code int, lines []string) {
	for i, l := range lines {
		sep := "-"
		if i == len(lines)-1 {
			sep = " "
		}
		fmt.Fprintf(sess.w, "%d%s%s\r\n", code, sep, l)
	}
	//lint:ignore errdrop a failed reply means the client hung up; the session loop sees it on the next read
	sess.w.Flush()
}

func splitVerb(line string) (verb, arg string) {
	verb, arg, _ = strings.Cut(line, " ")
	return strings.ToUpper(verb), strings.TrimSpace(arg)
}
