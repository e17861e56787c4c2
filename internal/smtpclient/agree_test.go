package smtpclient

import (
	"bufio"
	"crypto/tls"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// TestProberAndSenderAgree holds the scan to what an enforcing sender
// does: for every MX shape the §4.1 prober meets, a RequireTLS Sender
// delivers exactly when the prober reports TLS with an ok certificate,
// a refusal carries the prober's verdict, and an opportunistic Sender
// uses TLS exactly when the prober got it and reports its certificate
// verdict. Each role dials a fresh
// server, so a greylist sees every role as a first-time client.
func TestProberAndSenderAgree(t *testing.T) {
	ca := newCA(t)
	const host = "mx.example.com"
	issue := func(opts pki.IssueOptions) *tls.Certificate {
		opts.Now = probeNow
		return certFor(t, ca, opts)
	}
	valid := issue(pki.IssueOptions{Names: []string{host}})
	mx := func(b smtpd.Behavior) func(*testing.T) string {
		b.Hostname, b.AcceptMail = host, true
		return func(t *testing.T) string { return startSMTPD(t, b) }
	}

	rows := []struct {
		name  string
		start func(*testing.T) string
		// delivers is whether the RequireTLS sender should deliver.
		delivers bool
		// refusesMail marks an MX that accepts no mail on a first
		// connection, so no opportunistic delivery is compared.
		refusesMail bool
	}{
		{name: "valid certificate", start: mx(smtpd.Behavior{Certificate: valid}), delivers: true},
		{name: "no STARTTLS", start: mx(smtpd.Behavior{DisableSTARTTLS: true})},
		{name: "HELO-only, valid certificate", start: mx(smtpd.Behavior{Certificate: valid, DisableEHLO: true}), delivers: true},
		{name: "HELO-only, no STARTTLS", start: mx(smtpd.Behavior{DisableEHLO: true, DisableSTARTTLS: true})},
		{name: "lower-case starttls keyword", start: func(t *testing.T) string { return startLowerCaseMX(t, valid) }, delivers: true},
		{name: "greylisted greeting", start: mx(smtpd.Behavior{Certificate: valid, Greylist: true}), refusesMail: true},
		{name: "expired certificate", start: mx(smtpd.Behavior{Certificate: issue(pki.IssueOptions{Names: []string{host},
			NotBefore: probeNow.Add(-48 * time.Hour), NotAfter: probeNow.Add(-24 * time.Hour)})})},
		{name: "wrong-name certificate", start: mx(smtpd.Behavior{Certificate: issue(pki.IssueOptions{Names: []string{"other.example.net"}})})},
		{name: "self-signed certificate", start: mx(smtpd.Behavior{Certificate: issue(pki.IssueOptions{Names: []string{host}, SelfSigned: true})})},
		{name: "STARTTLS without certificate", start: mx(smtpd.Behavior{})},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ctx := atProbeNow()
			p := &Prober{HeloName: "prober.test", Roots: ca.Pool(), Timeout: 3 * time.Second,
				AddrOverride: r.start(t)}
			probed := p.Probe(ctx, host)
			tlsOK := probed.TLSEstablished && probed.CertProblem == pki.OK
			if tlsOK != r.delivers {
				t.Fatalf("prober: TLS %v, certificate %v, err %v; want TLS-valid %v",
					probed.TLSEstablished, probed.CertProblem, probed.Err, r.delivers)
			}

			send := func(requireTLS bool) (DeliveryResult, error) {
				s := &Sender{HeloName: "sender.test", Roots: ca.Pool(), RequireTLS: requireTLS,
					Timeout: 3 * time.Second, AddrOverride: r.start(t)}
				return s.Deliver(ctx, host, "a@sender.test", []string{"b@example.com"}, []byte("hello\n"))
			}
			_, err := send(true)
			if (err == nil) != tlsOK {
				t.Errorf("RequireTLS sender err = %v; prober TLS-valid %v", err, tlsOK)
			}
			if err != nil && !tlsOK {
				want := proberVerdict(probed)
				if code, _ := errtax.CodeOf(err); code != want {
					t.Errorf("RequireTLS sender code = %q (err %v), want the prober's %q", code, err, want)
				}
			}

			if r.refusesMail {
				return
			}
			res, err := send(false)
			if err != nil {
				t.Fatalf("opportunistic sender: %v", err)
			}
			if res.TLS != probed.TLSEstablished || res.Problem != probed.CertProblem {
				t.Errorf("opportunistic sender TLS = %v, certificate %v; prober TLSEstablished = %v, certificate %v",
					res.TLS, res.Problem, probed.TLSEstablished, probed.CertProblem)
			}
		})
	}
}

// TestHelloCapabilityKeywords pins the one EHLO parser both roles use:
// a line's first word is the keyword, in any case; a longer word that
// starts with STARTTLS is another extension; a blank line ("250-"),
// which a hostile MX can send, is no keyword and no crash.
func TestHelloCapabilityKeywords(t *testing.T) {
	cases := []struct {
		reply string
		want  bool
	}{
		{"250-mx.example.com\r\n250 STARTTLS\r\n", true},
		{"250-mx.example.com\r\n250 starttls\r\n", true},
		{"250-mx.example.com\r\n250-StartTLS\r\n250 SIZE 1000\r\n", true},
		{"250-mx.example.com\r\n250 STARTTLSX\r\n", false},
		{"250-mx.example.com\r\n250-\r\n250 8BITMIME\r\n", false},
		{"250\r\n", false},
	}
	for _, c := range cases {
		server, client := net.Pipe()
		go func() {
			defer server.Close()
			bufio.NewReader(server).ReadString('\n') // EHLO
			server.Write([]byte(c.reply))
		}()
		s := session{conn: client, text: newTextConn(client)}
		if err := s.hello("client.test"); err != nil {
			t.Errorf("%q: hello: %v", c.reply, err)
		}
		if !s.ehlo || s.starttls != c.want {
			t.Errorf("%q: ehlo %v, starttls %v; want true, %v", c.reply, s.ehlo, s.starttls, c.want)
		}
		client.Close()
	}
}

// proberVerdict is the errtax code a refusing sender must carry for
// what the prober saw.
func proberVerdict(res ProbeResult) errtax.Code {
	switch {
	case res.TLSEstablished:
		return res.CertProblem.Code()
	case errors.Is(res.Err, ErrNoSTARTTLS):
		return errtax.CodeNoSTARTTLS
	case res.Greylisted:
		return errtax.CodeGreylisted
	}
	return res.CertProblem.Code()
}

func startSMTPD(t *testing.T, b smtpd.Behavior) string {
	t.Helper()
	srv := smtpd.New(b)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("smtpd start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// startLowerCaseMX serves a scripted MX that lists its STARTTLS
// extension as "starttls", which RFC 5321 §2.4 makes equivalent, and
// accepts mail before or after TLS.
func startLowerCaseMX(t *testing.T, cert *tls.Certificate) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	conf := &tls.Config{Certificates: []tls.Certificate{*cert}, MinVersion: tls.VersionTLS12}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				serveLowerCase(conn, conf)
			}()
		}
	}()
	return ln.Addr().String()
}

func serveLowerCase(conn net.Conn, conf *tls.Config) {
	var c net.Conn = conn
	r := bufio.NewReader(c)
	secure := false
	c.Write([]byte("220 mx.example.com ESMTP\r\n"))
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		verb, _, _ := strings.Cut(strings.ToUpper(strings.TrimSpace(line)), " ")
		switch {
		case verb == "EHLO" && !secure:
			c.Write([]byte("250-mx.example.com\r\n250 starttls\r\n"))
		case verb == "STARTTLS" && !secure:
			c.Write([]byte("220 ready\r\n"))
			tc := tls.Server(conn, conf)
			if tc.Handshake() != nil {
				return
			}
			c, r, secure = tc, bufio.NewReader(tc), true
		case verb == "DATA":
			c.Write([]byte("354 go ahead\r\n"))
			for line != ".\r\n" && err == nil {
				line, err = r.ReadString('\n')
			}
			c.Write([]byte("250 accepted\r\n"))
		case verb == "QUIT":
			c.Write([]byte("221 bye\r\n"))
			return
		default:
			c.Write([]byte("250 ok\r\n"))
		}
	}
}
