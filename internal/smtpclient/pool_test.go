package smtpclient

import (
	"bufio"
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// startInjectingMX serves a scripted MX that answers STARTTLS with its
// 220 and, in the same write, a plaintext "250 injected" line, then
// runs the handshake. Over TLS it answers every command with a reply
// naming the command, so a client that read the injected line is one
// reply out of step from then on.
func startInjectingMX(t *testing.T, cert *tls.Certificate) string {
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
				serveInjecting(conn, conf)
			}()
		}
	}()
	return ln.Addr().String()
}

func serveInjecting(conn net.Conn, conf *tls.Config) {
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
			c.Write([]byte("250-mx.example.com\r\n250 STARTTLS\r\n"))
		case verb == "STARTTLS" && !secure:
			c.Write([]byte("220 ready\r\n250 injected\r\n"))
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
			fmt.Fprintf(c, "250 tls %s\r\n", verb)
		}
	}
}

// TestSTARTTLSDiscardsPipelinedPlaintext: plaintext a server sends
// after its 220 to STARTTLS is never read as a reply on the TLS channel
// (RFC 3207 §4.2), now that the session's buffers are reset onto the
// TLS connection instead of replaced. The session the Prober runs must
// read the TLS server's answer to its next command; the Sender, whose
// replies would all be one out of step, must deliver; and the Prober's
// probe must complete.
func TestSTARTTLSDiscardsPipelinedPlaintext(t *testing.T) {
	ca := newCA(t)
	cert := certFor(t, ca, pki.IssueOptions{Names: []string{"mx.example.com"}, Now: probeNow})
	addr := startInjectingMX(t, cert)

	t.Run("session", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		sess, err := open(ctx, addr, "prober.test", nil)
		if sess.conn != nil {
			defer sess.conn.Close()
			defer sess.release()
		}
		if err != nil {
			t.Fatal(err)
		}
		if code, _, err := sess.startTLS(ctx, "mx.example.com"); code != 220 || err != nil {
			t.Fatalf("startTLS = %d, %v", code, err)
		}
		code, lines, err := sess.text.cmd("NOOP")
		if err != nil || code != 250 || len(lines) != 1 || lines[0] != "tls NOOP" {
			t.Fatalf("NOOP over TLS = %d, %q, %v; want the TLS server's 250 tls NOOP", code, lines, err)
		}
	})
	t.Run("prober", func(t *testing.T) {
		p := &Prober{HeloName: "prober.test", Roots: ca.Pool(), Timeout: 3 * time.Second, AddrOverride: addr}
		res := p.Probe(atProbeNow(), "mx.example.com")
		if res.Err != nil || !res.TLSEstablished || !res.CertProblem.Valid() {
			t.Fatalf("res = %+v", res)
		}
	})
	t.Run("sender", func(t *testing.T) {
		s := &Sender{HeloName: "sender.test", Roots: ca.Pool(), RequireTLS: true, Timeout: 3 * time.Second, AddrOverride: addr}
		res, err := s.Deliver(atProbeNow(), "mx.example.com", "a@b.test", []string{"c@d.test"}, []byte("hello\n"))
		if err != nil || !res.TLS || !res.CertVerified {
			t.Fatalf("Deliver = %+v, %v", res, err)
		}
	})
}

// TestReplyLinesSurviveBufferReuse: the lines readReply returns are
// copies, so they keep their text after the textConn that read them
// goes back to the pool and its buffer reads another reply.
func TestReplyLinesSurviveBufferReuse(t *testing.T) {
	read := func(reply string) []string {
		server, client := net.Pipe()
		defer client.Close()
		go func() {
			server.Write([]byte(reply))
			server.Close()
		}()
		tc := newTextConn(client)
		defer tc.release()
		_, lines, err := tc.readReply()
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	first := read("250-first line\r\n250 last line\r\n")
	for i := 0; i < 4; i++ {
		read("250-XXXXXXXXXXXXXXXXXXXXXXXX\r\n250 YYYYYYYYYYYYYYYYYYYYY\r\n")
	}
	if len(first) != 2 || first[0] != "first line" || first[1] != "last line" {
		t.Errorf("first reply's lines = %q after its buffer was reused", first)
	}
}

// TestConcurrentProbesShareNoBuffer: probes running at once each get
// their own buffers. Every MX host presents a certificate for its own
// name, so a probe that read another session's bytes would see a
// handshake fail or the wrong chain; under -race a shared buffer is
// also a reported race.
func TestConcurrentProbesShareNoBuffer(t *testing.T) {
	n, err := loopnet.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const hosts, rounds = 4, 6
	for i := 0; i < hosts; i++ {
		if _, err := n.AddMX(smtpd.Behavior{}, fmt.Sprintf("mx%d.pool.test", i)); err != nil {
			t.Fatal(err)
		}
	}
	p := &Prober{HeloName: "prober.test", Roots: n.CA.Pool(), Timeout: 5 * time.Second}
	var wg sync.WaitGroup
	errs := make(chan error, hosts*rounds)
	for i := 0; i < hosts; i++ {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(host string) {
				defer wg.Done()
				res := p.ProbeAddr(context.Background(), host, n.DialAddr(host))
				switch {
				case res.Err != nil || !res.TLSEstablished:
					errs <- fmt.Errorf("%s: %+v", host, res)
				case !res.CertProblem.Valid() || res.Certificates[0].VerifyHostname(host) != nil:
					errs <- fmt.Errorf("%s: got %v, the chain of %v", host, res.CertProblem, res.Certificates[0].DNSNames)
				}
			}(fmt.Sprintf("mx%d.pool.test", i))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// startProbeTarget starts a loopnet world with one MX host and returns
// a Prober aimed at it and the host's name.
func startProbeTarget(tb testing.TB) (*Prober, string) {
	tb.Helper()
	n, err := loopnet.Start(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	const host = "mx.bench.test"
	if _, err := n.AddMX(smtpd.Behavior{}, host); err != nil {
		tb.Fatal(err)
	}
	return &Prober{HeloName: "prober.test", Roots: n.CA.Pool(), Timeout: 5 * time.Second, AddrOverride: n.DialAddr(host)}, host
}

// BenchmarkProbe times one whole probe (dial, greeting, EHLO, STARTTLS,
// handshake, validation, QUIT) against a loopnet MX over loopback. The
// in-process server's share of the work is in the figures.
func BenchmarkProbe(b *testing.B) {
	p, host := startProbeTarget(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := p.Probe(ctx, host); !res.TLSEstablished {
			b.Fatalf("probe: %+v", res)
		}
	}
}
