package loopnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/leakcheck"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// TestMain fails the package if a world leaves a goroutine behind: Close
// must join every server, and a capped session must end.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func start(t *testing.T) *Net {
	t.Helper()
	n, err := Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return n
}

// addGoodMX puts name behind a server with a valid certificate.
func addGoodMX(t *testing.T, n *Net, name string) *smtpd.Server {
	t.Helper()
	srv, err := n.AddMX(smtpd.Behavior{AcceptMail: true}, name)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func prober(n *Net) *smtpclient.Prober {
	return &smtpclient.Prober{HeloName: "loopnet.test", Roots: n.CA.Pool(), Timeout: 3 * time.Second}
}

// Two worlds brought up at the same moment keep to their own ports:
// each one's scanner sees its own two domains, on their own MX hosts,
// and nothing of the other's.
func TestConcurrentWorldsDoNotCollide(t *testing.T) {
	var wg sync.WaitGroup
	nets, errs := make([]*Net, 2), make([]error, 2)
	for w := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets[w], errs[w] = Start(context.Background())
		}()
	}
	wg.Wait()
	for w, n := range nets {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		t.Cleanup(func() {
			if err := n.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
	if nets[0].SMTPPort == nets[1].SMTPPort {
		t.Errorf("both worlds on SMTP port %d", nets[0].SMTPPort)
	}

	domain := func(w, i int) string { return fmt.Sprintf("w%dd%d.test", w, i) }
	for w, n := range nets {
		for i := 0; i < 2; i++ {
			mx := "mx." + domain(w, i)
			addGoodMX(t, n, mx)
			n.AddDomain(Domain{
				Name: domain(w, i), MX: []string{mx}, TXT: []string{"v=STSv1; id=1;"},
				Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
					Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400, MXPatterns: []string{mx}}},
			})
		}
		if a, b := n.DialAddr("mx."+domain(w, 0)), n.DialAddr("mx."+domain(w, 1)); a == b {
			t.Errorf("world %d: two MX hosts share %s", w, a)
		}
	}
	for w, n := range nets {
		dns := resolver.New(n.DNS.Addr().String())
		live := &scanner.Live{
			DNS: dns,
			Fetcher: &mtasts.Fetcher{Resolver: scanner.TXTResolverAdapter{Client: dns},
				RootCAs: n.CA.Pool(), Port: n.Policy.Port(), Timeout: 3 * time.Second},
			Prober: &smtpclient.Prober{HeloName: "loopnet.test", Roots: n.CA.Pool(),
				Port: n.SMTPPort, Timeout: 3 * time.Second},
		}
		for i := 0; i < 2; i++ {
			d := domain(w, i)
			r := live.ScanDomain(context.Background(), d)
			if !r.PolicyOK || r.Misconfigured() || r.MXProblems["mx."+d] != pki.OK || len(r.MXProblems) != 1 {
				t.Errorf("%s: stage=%s categories=%v mx=%v", d, r.PolicyStage.Key(), r.Categories(), r.MXProblems)
			}
		}
		if r := live.ScanDomain(context.Background(), domain(1-w, 0)); r.RecordPresent || len(r.MXHosts) != 0 {
			t.Errorf("world %d sees a domain of the other world: %+v", w, r)
		}
	}
}

// An injector and an adversary installed before AddMX govern the MX
// added afterwards, and removing them restores the honest server.
func TestFaultsAndAdversaryReachLaterMX(t *testing.T) {
	n := start(t)
	const mx = "mx.late.test"
	inj := faults.NewInjector(faults.Plan{Seed: 1, ConnReset: 1})
	n.SetFaults(inj)
	strip, ok := faults.AttackByName("starttls_strip")
	if !ok {
		t.Fatal("no starttls_strip attack")
	}
	n.SetAdversary(faults.NewAdversary(faults.Scenario{Attack: strip, Seed: 1, Domain: "late.test", MXHost: mx}))
	addGoodMX(t, n, mx)

	ctx := context.Background()
	if res := prober(n).ProbeAddr(ctx, mx, n.DialAddr(mx)); res.Err == nil || res.TLSEstablished {
		t.Errorf("probe through ConnReset=1 got a session: %+v", res)
	}
	if inj.Counts()["smtpd.reset"] == 0 {
		t.Errorf("no smtpd.reset counted: %v", inj.Counts())
	}
	n.SetFaults(nil)
	if res := prober(n).ProbeAddr(ctx, mx, n.DialAddr(mx)); !errors.Is(res.Err, smtpclient.ErrNoSTARTTLS) {
		t.Errorf("adversary did not strip STARTTLS: %+v", res)
	}
	n.SetAdversary(nil)
	if res := prober(n).ProbeAddr(ctx, mx, n.DialAddr(mx)); !res.TLSEstablished || res.CertProblem != pki.OK {
		t.Errorf("honest probe: %+v", res)
	}
}

// The SMTP port is common to every MX, so when a foreign listener holds
// it on the next address AddMX moves on to another address, not another
// port.
func TestAddMXSkipsAnOccupiedAddress(t *testing.T) {
	n := start(t)
	addGoodMX(t, n, "mx.first.test")
	first, err := netip.ParseAddrPort(n.DialAddr("mx.first.test"))
	if err != nil {
		t.Fatal(err)
	}
	squatter, err := net.Listen("tcp", netip.AddrPortFrom(first.Addr().Next(), first.Port()).String())
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()

	addGoodMX(t, n, "mx.second.test")
	second, err := netip.ParseAddrPort(n.DialAddr("mx.second.test"))
	if err != nil {
		t.Fatal(err)
	}
	if int(second.Port()) != n.SMTPPort || second.Port() != first.Port() {
		t.Errorf("ports: first %d second %d world %d", first.Port(), second.Port(), n.SMTPPort)
	}
	if second.Addr() == first.Addr() || second.String() == squatter.Addr().String() {
		t.Errorf("second MX at %s (first %s, squatter %s)", second, first, squatter.Addr())
	}
	if res := prober(n).ProbeAddr(context.Background(), "mx.second.test", second.String()); res.CertProblem != pki.OK || !res.TLSEstablished {
		t.Errorf("probe of the re-rolled MX: %+v", res)
	}
}

// TestSmokeSend and the stale-policy drills kill the policy host alone;
// closing the world afterwards is not an error.
func TestCloseAfterPolicyHostClosedAlone(t *testing.T) {
	n, err := Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	addGoodMX(t, n, "mx.alone.test")
	if err := n.Policy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("Close after Policy().Close(): %v", err)
	}
}

// A client that never ends its command line, or its DATA payload, is
// answered 500 / 552 and cut off; it can neither grow the server's
// memory nor park a session goroutine (TestMain checks the latter).
func TestMXCapsWhatAClientCanStream(t *testing.T) {
	n := start(t)
	srv := addGoodMX(t, n, "mx.capped.test")
	chunk := append(bytes.Repeat([]byte("A"), 1022), '\r', '\n')

	for _, tc := range []struct {
		name     string
		preamble string
		stream   []byte // written over and over
		want     string
	}{
		{"endless command line", "", chunk[:1022], "500 "},
		{"endless DATA body", "EHLO c.test\r\nMAIL FROM:<a@c.test>\r\nRCPT TO:<b@capped.test>\r\nDATA\r\n", chunk, "552 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", n.DialAddr("mx.capped.test"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
				t.Fatal(err)
			}
			// The reader runs beside the writer so the server's replies
			// never back up; it ends when the server closes the session.
			replies := make(chan string, 1)
			go func() {
				var last string
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					last = sc.Text()
				}
				replies <- last
			}()
			if _, err := io.WriteString(conn, tc.preamble); err != nil {
				t.Fatal(err)
			}
			var werr error
			for werr == nil {
				_, werr = conn.Write(tc.stream)
			}
			var nerr net.Error
			if errors.As(werr, &nerr) && nerr.Timeout() {
				t.Fatalf("server kept reading for 20s: %v", werr)
			}
			if last := <-replies; !strings.HasPrefix(last, tc.want) {
				t.Errorf("last reply %q, want %s…", last, tc.want)
			}
		})
	}
	if got := len(srv.Messages()); got != 0 {
		t.Errorf("%d message(s) accepted from a client that never finished one", got)
	}
}
