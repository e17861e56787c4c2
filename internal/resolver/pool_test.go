package resolver

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
)

// serveZone starts an authoritative server for z on listen, closed when
// the test ends.
func serveZone(t testing.TB, z *dnszone.Zone, listen string) *dnsserver.Server {
	t.Helper()
	srv := dnsserver.New(nil)
	srv.AddZone(z)
	if _, err := srv.Start(listen); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return srv
}

func txtRR(name, value string) dnsmsg.RR {
	return dnsmsg.RR{Name: name, Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN, TTL: 60, Data: dnsmsg.NewTXT(value)}
}

// TestConcurrentLookupsGetTheirOwnAnswers: every reply is read into a
// scratch that goes back to the pool when the exchange returns, so a
// Message that still pointed into one would surface as another caller's
// bytes. 32 callers with distinct names and values share the pool, one
// of them through the TCP fallback; run it under -race.
func TestConcurrentLookupsGetTheirOwnAnswers(t *testing.T) {
	lookupConcurrently(t, 0)
}

// lookupConcurrently runs TestConcurrentLookupsGetTheirOwnAnswers' 32
// callers against a client with the given QueriesPerSocket and returns
// the client.
func lookupConcurrently(t *testing.T, queriesPerSocket int) *Client {
	z := dnszone.New("pool.test")
	want := map[string]string{}
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("n%02d.pool.test", i)
		want[name] = fmt.Sprintf("v=STSv1; id=%032d;", i)
	}
	const big = "big.pool.test" // > 1232 B of answer: truncated over UDP, refetched over TCP
	want[big] = strings.Repeat("0123456789abcdef", 100)
	for name, value := range want {
		z.MustAdd(txtRR(name, value))
	}
	c := New(serveZone(t, z, "127.0.0.1:0").Addr().String())
	c.Cache = nil
	c.QueriesPerSocket = queriesPerSocket

	var wg sync.WaitGroup
	for name, value := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				got, err := c.LookupTXT(context.Background(), name)
				if err != nil {
					t.Errorf("LookupTXT(%s): %v", name, err)
					return
				}
				if len(got) != 1 || got[0] != value {
					t.Errorf("LookupTXT(%s) = %q, want [%q]", name, got, value)
					return
				}
			}
		}()
	}
	wg.Wait()
	return c
}

// TestHostnameServerAddr: a ServerAddr that is not an address literal
// (-dns localhost:53) still goes through the Dialer's name resolution.
func TestHostnameServerAddr(t *testing.T) {
	ips, err := net.DefaultResolver.LookupIPAddr(context.Background(), "localhost")
	if err != nil || len(ips) == 0 {
		t.Skipf("localhost does not resolve here: %v", err)
	}
	z := dnszone.New("host.test")
	z.MustAdd(txtRR("_mta-sts.host.test", "v=STSv1; id=1;"))
	// A UDP dial connects to the first address the name yields.
	srv := serveZone(t, z, net.JoinHostPort(ips[0].String(), "0"))
	_, port, err := net.SplitHostPort(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := New(net.JoinHostPort("localhost", port))
	c.Cache = nil
	got, err := c.LookupTXT(context.Background(), "_mta-sts.host.test")
	if err != nil || len(got) != 1 || got[0] != "v=STSv1; id=1;" {
		t.Errorf("LookupTXT via localhost:%s = %q, %v", port, got, err)
	}
}

// TestFreshSourcePortPerQuery pins one socket per query: with the
// unpredictable ID, the source port is what an off-path spoofer must
// guess (RFC 5452), and the sender MTA shares this client. A client that
// kept a connected socket would show one port here.
func TestFreshSourcePortPerQuery(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ports := make(chan int, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // answers NXDOMAIN to everything, reporting where it came from
		defer wg.Done()
		buf := make([]byte, 512)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed below
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			q.Header.Response, q.Header.RCode = true, dnsmsg.RCodeNXDomain
			reply, err := q.Pack()
			if err != nil {
				continue
			}
			ports <- from.Port
			conn.WriteToUDP(reply, from)
		}
	}()
	defer wg.Wait()
	defer conn.Close()

	c := New(conn.LocalAddr().String())
	c.Cache = nil
	seen := map[int]bool{}
	for i := 0; i < cap(ports); i++ {
		if _, err := c.LookupTXT(context.Background(), "absent.test"); !IsNotFound(err) {
			t.Fatalf("query %d: %v, want NXDOMAIN", i, err)
		}
		seen[<-ports] = true
	}
	if len(seen) < 2 {
		t.Errorf("%d queries left from %d source port(s) %v, want a fresh socket per query", cap(ports), len(seen), seen)
	}
}
