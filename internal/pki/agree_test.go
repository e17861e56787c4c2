package pki_test

import (
	"bufio"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
)

// TestLiveAndProfileAgree checks the central substitution claim on real
// sockets: for every defect, alone and in combination, the policy fetch,
// the MX probe, Validate, the descriptor and a RequireTLS sender name the
// same Problem. On every failing row it also pins that nothing got
// looser: the fetcher never writes its GET and the sender never reaches
// MAIL FROM. The whole table runs at a fixed past date: the
// certificates are issued at it, and one clock on the context makes the
// fetcher, the prober and the sender all judge at it.
func TestLiveAndProfileAgree(t *testing.T) {
	now := time.Date(2024, 9, 29, 12, 0, 0, 0, time.UTC)
	const host, wrong = "mail.example.com", "wrong.example.net"
	trusted, unknown := newCA(t, "Trusted Root", now), newCA(t, "Unknown Root", now)
	selfSigned := func(p pki.CertProfile) pki.CertProfile { p.SelfSigned = true; return p }
	untrusted := func(p pki.CertProfile) pki.CertProfile { p.Untrusted = true; return p }
	good, expired := pki.GoodProfile(now, host), pki.ExpiredProfile(now, host)

	rows := []struct {
		name           string
		profile        pki.CertProfile
		clientAuthOnly bool // the leaf's only EKU is clientAuth
		want           pki.Problem
	}{
		{"ok", good, false, pki.OK},
		{"expired", expired, false, pki.ProblemExpired},
		{"self-signed", selfSigned(good), false, pki.ProblemSelfSigned},
		{"untrusted", untrusted(good), false, pki.ProblemUntrusted},
		{"name-mismatch", pki.GoodProfile(now, wrong), false, pki.ProblemNameMismatch},
		{"missing", pki.MissingProfile(), false, pki.ProblemNoCertificate},
		{"self-signed+wrong-name", pki.SelfSignedProfile(now, wrong), false, pki.ProblemSelfSigned},
		{"expired+self-signed", selfSigned(expired), false, pki.ProblemSelfSigned},
		{"untrusted+wrong-name", untrusted(pki.GoodProfile(now, wrong)), false, pki.ProblemUntrusted},
		{"expired+untrusted", untrusted(expired), false, pki.ProblemUntrusted},
		{"expired+wrong-name", pki.ExpiredProfile(now, wrong), false, pki.ProblemExpired},
		{"clientAuth-only", untrusted(good), true, pki.ProblemUntrusted},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			issuer := trusted
			if r.profile.Untrusted && !r.clientAuthOnly { // that leaf is untrusted by its usage alone
				issuer = unknown
			}
			cert := leafFor(t, issuer, r.profile, r.clientAuthOnly)
			var chain []*x509.Certificate
			if cert != nil {
				chain = []*x509.Certificate{cert.Leaf}
			}
			https, smtp := startPeer(t, cert, false), startPeer(t, cert, true)
			ctx := clock.With(context.Background(), clock.NewFake(now))

			f := &mtasts.Fetcher{
				Resolver: mtasts.AddrResolverFunc(func(context.Context, string) ([]string, error) {
					return []string{"127.0.0.1"}, nil
				}),
				RootCAs: trusted.Pool(),
				Port:    https.port(),
				Timeout: 5 * time.Second,
			}
			_, _, fetchErr := f.FetchFromHost(ctx, "example.com", host)
			if r.want.Valid() && fetchErr != nil {
				t.Errorf("fetch: %v", fetchErr)
			}
			p := &smtpclient.Prober{HeloName: "prober.test", Roots: trusted.Pool(),
				Timeout: 5 * time.Second}
			probed := p.ProbeAddr(ctx, host, smtp.addr())
			s := &smtpclient.Sender{HeloName: "sender.test", Roots: trusted.Pool(), RequireTLS: true,
				Timeout: 5 * time.Second, AddrOverride: smtp.addr()}
			_, sendErr := s.Deliver(ctx, host, "a@sender.test", []string{"b@example.com"}, []byte("hello\n"))

			got := map[string]pki.Problem{
				"fetch":           mtasts.CertProblemOf(fetchErr),
				"probe":           probed.CertProblem,
				"Validate":        pki.Validate(chain, host, trusted.Pool(), now),
				"ValidateProfile": pki.ValidateProfile(r.profile, host, now),
			}
			for path, p := range got {
				if p != r.want {
					t.Errorf("%s = %v, want %v", path, p, r.want)
				}
			}
			switch code, ok := errtax.CodeOf(sendErr); {
			case r.want.Valid():
				if sendErr != nil {
					t.Errorf("sender: %v, want delivered", sendErr)
				}
			case r.profile.Missing: // no handshake completes: the sender's code is the handshake's
			case !ok || code != r.want.Code():
				t.Errorf("sender code = %v (err %v), want %v", code, sendErr, r.want.Code())
			}

			https.close()
			smtp.close()
			get := strings.Contains(https.received(), "GET ")
			mail := strings.Contains(smtp.received(), "MAIL FROM")
			if r.want.Valid() {
				if !get || !mail {
					t.Errorf("valid row: GET seen %v, MAIL FROM seen %v; want both", get, mail)
				}
			} else {
				if b := https.received(); b != "" {
					t.Errorf("fetcher wrote %q after a handshake it should have refused", b)
				}
				if mail {
					t.Errorf("RequireTLS sender sent MAIL FROM: %q", smtp.received())
				}
			}
		})
	}
}

func newCA(t *testing.T, name string, now time.Time) *pki.CA {
	t.Helper()
	ca, err := pki.NewCA(name, now)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// leafFor mints the real certificate a descriptor stands for: its names
// and window, self-issued or signed by issuer. A missing profile has none.
func leafFor(t *testing.T, issuer *pki.CA, p pki.CertProfile, clientAuthOnly bool) *tls.Certificate {
	t.Helper()
	if p.Missing {
		return nil
	}
	if !clientAuthOnly {
		leaf, err := issuer.Issue(pki.IssueOptions{Names: p.Names, NotBefore: p.NotBefore,
			NotAfter: p.NotAfter, SelfSigned: p.SelfSigned})
		if err != nil {
			t.Fatal(err)
		}
		c := leaf.TLSCertificate()
		return &c
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.CreateCertificate(rand.Reader, &x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      pkix.Name{CommonName: p.Names[0]},
		DNSNames:     p.Names,
		NotBefore:    p.NotBefore,
		NotAfter:     p.NotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}, issuer.Cert, &key.PublicKey, issuer.Key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return &tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
}

// peer is a loopback server presenting one certificate (nil: none is
// installed, so every handshake fails). An HTTPS peer handshakes on the
// first byte and answers one request with a policy; an SMTP peer speaks
// just enough ESMTP for a probe and a delivery, with STARTTLS. Either
// records every byte a client sends after a handshake completed.
type peer struct {
	ln   net.Listener
	wg   sync.WaitGroup
	mu   sync.Mutex
	sent strings.Builder
}

func startPeer(t *testing.T, cert *tls.Certificate, smtp bool) *peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conf := &tls.Config{MinVersion: tls.VersionTLS12}
	if cert != nil {
		conf.Certificates = []tls.Certificate{*cert}
	} else {
		conf.GetCertificate = func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			return nil, errors.New("no certificate installed")
		}
	}
	p := &peer{ln: ln}
	t.Cleanup(p.close)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if smtp {
					p.serveSMTP(conn, conf)
				} else {
					p.serveHTTPS(conn, conf)
				}
			}()
		}
	}()
	return p
}

func (p *peer) serveHTTPS(conn net.Conn, conf *tls.Config) {
	tc := tls.Server(conn, conf)
	if tc.Handshake() != nil {
		return
	}
	r := bufio.NewReader(tc)
	for {
		line, err := r.ReadString('\n')
		p.record(line)
		if err != nil || line == "\r\n" {
			break
		}
	}
	body := "version: STSv1\nmode: enforce\nmx: mail.example.com\nmax_age: 86400\n"
	fmt.Fprintf(tc, "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
}

func (p *peer) serveSMTP(conn net.Conn, conf *tls.Config) {
	var c net.Conn = conn
	r := bufio.NewReader(c)
	secure := false
	fmt.Fprint(c, "220 mail.example.com ESMTP\r\n")
	for {
		line, err := r.ReadString('\n')
		if secure {
			p.record(line)
		}
		if err != nil {
			return
		}
		verb, _, _ := strings.Cut(strings.ToUpper(strings.TrimSpace(line)), " ")
		switch {
		case verb == "EHLO" && !secure:
			fmt.Fprint(c, "250-mail.example.com\r\n250 STARTTLS\r\n")
		case verb == "STARTTLS" && !secure:
			fmt.Fprint(c, "220 ready\r\n")
			tc := tls.Server(conn, conf)
			if tc.Handshake() != nil {
				return
			}
			c, r, secure = tc, bufio.NewReader(tc), true
		case verb == "DATA":
			fmt.Fprint(c, "354 go ahead\r\n")
			for line != ".\r\n" && err == nil {
				line, err = r.ReadString('\n')
			}
			fmt.Fprint(c, "250 accepted\r\n")
		case verb == "QUIT":
			fmt.Fprint(c, "221 bye\r\n")
			return
		default:
			fmt.Fprint(c, "250 ok\r\n")
		}
	}
}

func (p *peer) record(s string) {
	p.mu.Lock()
	p.sent.WriteString(s)
	p.mu.Unlock()
}

func (p *peer) received() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent.String()
}

func (p *peer) port() int    { return p.ln.Addr().(*net.TCPAddr).Port }
func (p *peer) addr() string { return p.ln.Addr().String() }
func (p *peer) close()       { p.ln.Close(); p.wg.Wait() }
