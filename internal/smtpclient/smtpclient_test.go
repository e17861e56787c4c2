package smtpclient

import (
	"bufio"
	"context"
	"crypto/tls"
	"net"

	"strings"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

var probeNow = time.Now()

func newCA(t *testing.T) *pki.CA {
	t.Helper()
	ca, err := pki.NewCA("SMTP Test CA", probeNow)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func certFor(t *testing.T, ca *pki.CA, opts pki.IssueOptions) *tls.Certificate {
	t.Helper()
	leaf, err := ca.Issue(opts)
	if err != nil {
		t.Fatal(err)
	}
	c := leaf.TLSCertificate()
	return &c
}

// atProbeNow is a context whose clock reads probeNow, the instant the
// test certificates are issued at.
func atProbeNow() context.Context {
	return clock.With(context.Background(), clock.NewFake(probeNow))
}

// startMX boots an smtpd server and returns a prober aimed at it; probe
// it under atProbeNow.
func startMX(t *testing.T, ca *pki.CA, b smtpd.Behavior) (*smtpd.Server, *Prober) {
	t.Helper()
	srv := smtpd.New(b)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("smtpd start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	p := &Prober{
		HeloName:     "prober.test",
		Roots:        ca.Pool(),
		Timeout:      3 * time.Second,
		AddrOverride: addr.String(),
	}
	return srv, p
}

func TestProbeValidCertificate(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	_, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert})

	res := p.Probe(atProbeNow(), "mx.example.com")
	if res.Err != nil {
		t.Fatalf("probe err: %v", res.Err)
	}
	if !res.Connected || !res.EHLOUsed || !res.STARTTLSAdvertised || !res.TLSEstablished {
		t.Errorf("res = %+v", res)
	}
	if res.CertProblem != pki.OK {
		t.Errorf("CertProblem = %v", res.CertProblem)
	}
	if len(res.Certificates) == 0 {
		t.Error("no certificates collected")
	}
}

func TestProbeCertTaxonomy(t *testing.T) {
	ca := newCA(t)
	cases := []struct {
		name string
		opts pki.IssueOptions
		want pki.Problem
	}{
		{"name mismatch", pki.IssueOptions{Names: []string{"other.example.net"}, Now: probeNow}, pki.ProblemNameMismatch},
		{"expired", pki.IssueOptions{Names: []string{"mx.example.com"},
			NotBefore: probeNow.Add(-48 * time.Hour), NotAfter: probeNow.Add(-24 * time.Hour), Now: probeNow}, pki.ProblemExpired},
		{"self-signed", pki.IssueOptions{Names: []string{"mx.example.com"}, SelfSigned: true, Now: probeNow}, pki.ProblemSelfSigned},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cert := certFor(t, ca, c.opts)
			_, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert})
			res := p.Probe(atProbeNow(), "mx.example.com")
			if !res.TLSEstablished {
				t.Fatalf("TLS not established: %+v", res)
			}
			if res.CertProblem != c.want {
				t.Errorf("CertProblem = %v, want %v", res.CertProblem, c.want)
			}
		})
	}
}

func TestProbeNoSTARTTLS(t *testing.T) {
	ca := newCA(t)
	_, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com", DisableSTARTTLS: true})
	res := p.Probe(atProbeNow(), "mx.example.com")
	if res.STARTTLSAdvertised || res.TLSEstablished {
		t.Errorf("res = %+v", res)
	}
	if res.Err != ErrNoSTARTTLS {
		t.Errorf("Err = %v", res.Err)
	}
}

func TestProbeHELOFallback(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	_, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert, DisableEHLO: true})
	res := p.Probe(atProbeNow(), "mx.example.com")
	if res.EHLOUsed {
		t.Error("EHLO should have been refused")
	}
	// HELO gives no capability list, but STARTTLS still works when tried.
	if !res.TLSEstablished || res.CertProblem != pki.OK {
		t.Errorf("res = %+v (err=%v)", res, res.Err)
	}
}

func TestProbeGreylisted(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	_, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert, Greylist: true})
	res := p.Probe(atProbeNow(), "mx.example.com")
	if !res.Greylisted || res.Err != ErrGreylisted {
		t.Errorf("first attempt: %+v", res)
	}
	// Retry passes the greylist.
	res = p.Probe(atProbeNow(), "mx.example.com")
	if res.Greylisted || !res.TLSEstablished {
		t.Errorf("second attempt: %+v (err=%v)", res, res.Err)
	}
}

func TestProbeMissingCertificate(t *testing.T) {
	ca := newCA(t)
	_, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com"}) // no Certificate
	res := p.Probe(atProbeNow(), "mx.example.com")
	if res.TLSEstablished {
		t.Error("handshake should fail without a certificate")
	}
	if res.CertProblem != pki.ProblemNoCertificate {
		t.Errorf("CertProblem = %v", res.CertProblem)
	}
}

func TestProbeConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	p := &Prober{AddrOverride: addr, Timeout: 2 * time.Second}
	res := p.Probe(context.Background(), "mx.example.com")
	if res.Connected || res.Err == nil {
		t.Errorf("res = %+v", res)
	}
}

func TestProbeDoesNotDeliverMail(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	srv, p := startMX(t, ca, smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert, AcceptMail: true})
	p.Probe(atProbeNow(), "mx.example.com")
	if n := len(srv.Messages()); n != 0 {
		t.Errorf("probe delivered %d messages", n)
	}
}

func TestSenderDeliverOverTLS(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	srv := smtpd.New(smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert, AcceptMail: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	s := &Sender{HeloName: "sender.test", Roots: ca.Pool(), RequireTLS: true,
		Timeout: 3 * time.Second, AddrOverride: addr.String()}
	res, err := s.Deliver(context.Background(), "mx.example.com", "alice@sender.test",
		[]string{"bob@example.com"}, []byte("Subject: hi\n\nhello\n.leading dot line\n"))
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.TLS || !res.CertVerified {
		t.Errorf("res = %+v", res)
	}
	msgs := srv.Messages()
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	if !msgs[0].TLS || !strings.Contains(string(msgs[0].Data), ".leading dot line") {
		t.Errorf("message = %+v data=%q", msgs[0], msgs[0].Data)
	}
}

func TestSenderRequireTLSRefusesPlaintext(t *testing.T) {
	srv := smtpd.New(smtpd.Behavior{Hostname: "mx.example.com", DisableSTARTTLS: true, AcceptMail: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := &Sender{RequireTLS: true, Timeout: 3 * time.Second, AddrOverride: addr.String()}
	_, err = s.Deliver(context.Background(), "mx.example.com", "a@b", []string{"c@d"}, []byte("x"))
	if err == nil {
		t.Fatal("RequireTLS delivery over plaintext should fail")
	}
	if len(srv.Messages()) != 0 {
		t.Error("message was delivered despite RequireTLS failure")
	}
}

func TestSenderOpportunisticFallsBackToPlaintext(t *testing.T) {
	srv := smtpd.New(smtpd.Behavior{Hostname: "mx.example.com", DisableSTARTTLS: true, AcceptMail: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := &Sender{Timeout: 3 * time.Second, AddrOverride: addr.String()}
	res, err := s.Deliver(context.Background(), "mx.example.com", "a@b.test", []string{"c@d.test"}, []byte("body"))
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if res.TLS {
		t.Error("expected plaintext delivery")
	}
	if len(srv.Messages()) != 1 {
		t.Error("message not delivered")
	}
}

func TestSenderRequireTLSRefusesBadCert(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"wrong.example.net"}, Now: probeNow})
	srv := smtpd.New(smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert, AcceptMail: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := &Sender{Roots: ca.Pool(), RequireTLS: true, Timeout: 3 * time.Second, AddrOverride: addr.String()}
	_, err = s.Deliver(context.Background(), "mx.example.com", "a@b.test", []string{"c@d.test"}, []byte("x"))
	if err == nil {
		t.Fatal("delivery with bad cert under RequireTLS should fail")
	}
}

func TestSenderRejectAll(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	srv := smtpd.New(smtpd.Behavior{Hostname: "mx.example.com", Certificate: cert, RejectAll: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := &Sender{Roots: ca.Pool(), Timeout: 3 * time.Second, AddrOverride: addr.String()}
	_, err = s.Deliver(context.Background(), "mx.example.com", "a@b.test", []string{"c@d.test"}, []byte("x"))
	if err == nil {
		t.Fatal("RejectAll server should refuse the transaction")
	}
}

func TestDotStuff(t *testing.T) {
	cases := []struct{ in, want string }{
		{"hello\n", "hello\r\n"},
		{".hidden\n", "..hidden\r\n"},
		{"a\n.b\nc", "a\r\n..b\r\nc\r\n"},
		{"", ""},
		{"already\r\ncrlf\r\n", "already\r\ncrlf\r\n"},
	}
	for _, c := range cases {
		if got := string(dotStuff([]byte(c.in))); got != c.want {
			t.Errorf("dotStuff(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReadReplyMultiline(t *testing.T) {
	server, client := net.Pipe()
	go func() {
		server.Write([]byte("250-first\r\n250-second\r\n250 last\r\n"))
		server.Close()
	}()
	tc := newTextConn(client)
	code, lines, err := tc.readReply()
	if err != nil || code != 250 || len(lines) != 3 {
		t.Fatalf("readReply = %d, %v, %v", code, lines, err)
	}
	if lines[0] != "first" || lines[2] != "last" {
		t.Errorf("lines = %v", lines)
	}
}

func TestReadReplyMalformed(t *testing.T) {
	for _, in := range []string{"xx\r\n", "abc ok\r\n"} {
		server, client := net.Pipe()
		go func(s net.Conn, data string) {
			s.Write([]byte(data))
			s.Close()
		}(server, in)
		tc := newTextConn(client)
		if _, _, err := tc.readReply(); err == nil {
			t.Errorf("readReply accepted %q", in)
		}
		client.Close()
	}
}

func TestSenderPlaintextFallbackAfterFailedHandshake(t *testing.T) {
	// STARTTLS advertised but no certificate installed: the handshake
	// fails and an opportunistic sender must reconnect in plaintext.
	srv := smtpd.New(smtpd.Behavior{Hostname: "mx.nocert.example", AcceptMail: true})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := &Sender{HeloName: "fallback.test", Timeout: 3 * time.Second, AddrOverride: addr.String()}
	res, err := s.Deliver(context.Background(), "mx.nocert.example", "a@b.test", []string{"c@d.test"}, []byte("x\n"))
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if res.TLS {
		t.Error("fallback delivery should be plaintext")
	}
	if len(srv.Messages()) != 1 {
		t.Error("message not delivered after fallback")
	}

	// With RequireTLS the same failure must refuse, not fall back.
	s2 := &Sender{RequireTLS: true, Timeout: 3 * time.Second, AddrOverride: addr.String()}
	if _, err := s2.Deliver(context.Background(), "mx.nocert.example", "a@b.test", []string{"c@d.test"}, []byte("x\n")); err == nil {
		t.Fatal("RequireTLS delivery should fail on broken handshake")
	}
	if len(srv.Messages()) != 1 {
		t.Error("RequireTLS fallback delivered anyway")
	}
}

func TestProbeSTARTTLSRejectedAfterAdvertise(t *testing.T) {
	// A raw server that advertises STARTTLS but answers 454 to the command
	// (a transient policy server behavior).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		conn.Write([]byte("220 odd.example ESMTP\r\n"))
		r.ReadString('\n') // EHLO
		conn.Write([]byte("250-odd.example\r\n250 STARTTLS\r\n"))
		r.ReadString('\n') // STARTTLS
		conn.Write([]byte("454 4.7.0 TLS not available due to temporary reason\r\n"))
		r.ReadString('\n')
	}()
	p := &Prober{AddrOverride: ln.Addr().String(), Timeout: 2 * time.Second}
	res := p.Probe(context.Background(), "odd.example")
	if !res.STARTTLSAdvertised || res.TLSEstablished {
		t.Errorf("res = %+v", res)
	}
	if res.Err == nil || res.Err == ErrNoSTARTTLS {
		t.Errorf("Err = %v, want explicit rejection", res.Err)
	}
}

func TestProbePermanentGreetingFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("554 5.7.1 you are on a blocklist\r\n"))
		conn.Close()
	}()
	p := &Prober{AddrOverride: ln.Addr().String(), Timeout: 2 * time.Second}
	res := p.Probe(context.Background(), "blocked.example")
	if res.Greylisted {
		t.Error("5xx greeting misclassified as greylisting")
	}
	if res.Err == nil {
		t.Error("no error for 554 greeting")
	}
}

// A hostile MX must not be able to make a probe hold unbounded memory
// until the deadline fires: a reply line that never ends and a reply
// whose continuation lines never end both fail the probe as soon as the
// cap is crossed, long before the timeout.
func TestProbeCapsHostileReplies(t *testing.T) {
	flood := func(conn net.Conn, chunk string) {
		for {
			if _, err := conn.Write([]byte(chunk)); err != nil {
				return // the prober hung up
			}
		}
	}
	cases := []struct {
		name    string
		serve   func(conn net.Conn)
		wantErr string
	}{
		{
			name: "endless greeting line",
			serve: func(conn net.Conn) {
				conn.Write([]byte("220 "))
				flood(conn, strings.Repeat("a", 1024))
			},
			wantErr: "reply line over",
		},
		{
			name: "endless EHLO continuation",
			serve: func(conn net.Conn) {
				conn.Write([]byte("220 hostile.example ESMTP\r\n"))
				bufio.NewReader(conn).ReadString('\n') // EHLO
				flood(conn, "250-PIPELINING\r\n")
			},
			wantErr: "reply over",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				tc.serve(conn)
			}()

			p := &Prober{AddrOverride: ln.Addr().String(), Timeout: 30 * time.Second}
			start := time.Now()
			res := p.Probe(context.Background(), "hostile.example")
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("probe took %v: it waited on the flood instead of failing at the cap", took)
			}
			if res.Err == nil || !strings.Contains(res.Err.Error(), tc.wantErr) {
				t.Errorf("Err = %v, want one containing %q", res.Err, tc.wantErr)
			}
			if errtax.Transient(res.Err) {
				t.Errorf("Err = %v classified transient; a malformed reply is persistent", res.Err)
			}
			if res.TLSEstablished {
				t.Errorf("res = %+v", res)
			}
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Fatal("server goroutine still writing: the prober kept the connection open")
			}
		})
	}
}
