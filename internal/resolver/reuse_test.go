package resolver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/obs"
)

// fakeUDP serves DNS on a loopback UDP socket: every query that parses
// goes to handle with its source address, and handle writes whatever
// replies it likes. The server stops when the test ends.
func fakeUDP(t *testing.T, handle func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr)) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 512)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed at cleanup
			}
			if q, err := dnsmsg.Unpack(buf[:n]); err == nil && len(q.Questions) == 1 {
				handle(conn, q, from)
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		wg.Wait()
	})
	return conn
}

// answer packs a reply to q carrying one TXT record, value, at the name
// q asked for; edit, when not nil, changes the reply's question first.
func answer(t *testing.T, q *dnsmsg.Message, value string, edit func(*dnsmsg.Question)) []byte {
	asked := q.Questions[0]
	m := &dnsmsg.Message{Header: q.Header, Questions: []dnsmsg.Question{asked}}
	m.Header.Response = true
	if edit != nil {
		edit(&m.Questions[0])
	}
	m.Answers = []dnsmsg.RR{txtRR(asked.Name, value)}
	b, err := m.Pack()
	if err != nil {
		t.Error(err)
	}
	return b
}

// TestReplyMustMatchQuestion: a reply with the query's ID but another
// question (name, type or class) is a stray, not the answer (RFC 5452
// §9.1); the name matches case-insensitively. Every wrong reply here
// carries a TXT record at the asked name, so a client matching on the ID
// alone returns "wrong".
func TestReplyMustMatchQuestion(t *testing.T) {
	srv := fakeUDP(t, func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr) {
		for _, edit := range []func(*dnsmsg.Question){
			func(q *dnsmsg.Question) { q.Name = "other.test" },
			func(q *dnsmsg.Question) { q.Type = dnsmsg.TypeMX },
			func(q *dnsmsg.Question) { q.Class = dnsmsg.Class(3) },
		} {
			conn.WriteToUDP(answer(t, q, "wrong", edit), from)
		}
		conn.WriteToUDP(answer(t, q, "right", func(q *dnsmsg.Question) { q.Name = "AsKeD.TeSt" }), from)
	})
	for _, qps := range []int{0, ScannerQueriesPerSocket} {
		c := &Client{ServerAddr: srv.LocalAddr().String(), Timeout: 2 * time.Second, QueriesPerSocket: qps}
		for i := 0; i < 3; i++ {
			got, err := c.LookupTXT(context.Background(), "asked.test")
			if err != nil || len(got) != 1 || got[0] != "right" {
				t.Errorf("QueriesPerSocket %d, query %d: LookupTXT = %q, %v, want [right]", qps, i, got, err)
			}
		}
	}
}

// TestTCPReplyMustMatchQuestion: over TCP, where nothing else can
// arrive on the connection, a reply to another question is a malformed
// exchange.
func TestTCPReplyMustMatchQuestion(t *testing.T) {
	addr := truncatingServer(t, func(conn net.Conn) {
		var hdr [2]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		pkt := make([]byte, int(hdr[0])<<8|int(hdr[1]))
		if _, err := io.ReadFull(conn, pkt); err != nil {
			return
		}
		if q, err := dnsmsg.Unpack(pkt); err == nil {
			b := answer(t, q, "wrong", func(q *dnsmsg.Question) { q.Name = "other.test" })
			conn.Write(append([]byte{byte(len(b) >> 8), byte(len(b))}, b...))
		}
	})
	c := &Client{ServerAddr: addr, Timeout: 2 * time.Second}
	if got, err := c.LookupTXT(context.Background(), "asked.test"); !errors.Is(err, ErrBadMessage) {
		t.Errorf("LookupTXT over TCP = %q, %v, want ErrBadMessage", got, err)
	}
}

// TestCancelledTCPFallbackReturns: a lookup whose UDP answer is truncated
// and whose TCP listener accepts and never replies returns
// context.Canceled when it is cancelled, not at the 2 s Timeout; a
// context that reaches its deadline still reads as ErrTimeout.
func TestCancelledTCPFallbackReturns(t *testing.T) {
	addr := truncatingServer(t, func(conn net.Conn) {
		io.Copy(io.Discard, conn) // read the query, answer nothing
	})
	c := &Client{ServerAddr: addr, Timeout: 2 * time.Second}
	const after = 50 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(after, cancel)
	start := time.Now()
	_, err := c.LookupTXT(ctx, "asked.test")
	took := time.Since(start)
	timer.Stop()
	cancel()
	if !errors.Is(err, context.Canceled) || took > after+500*time.Millisecond {
		t.Errorf("cancelled after %v: err = %v after %v, want context.Canceled at once", after, err, took)
	}
	ctx, cancel = context.WithTimeout(context.Background(), after)
	_, err = c.LookupTXT(ctx, "asked.test")
	cancel()
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("context deadline: err = %v, want ErrTimeout", err)
	}
}

// truncatingServer answers every UDP query with an empty truncated reply,
// so the client retries over TCP on the same loopback port, where serve
// handles each connection. It returns the address and stops, with every
// connection, when the test ends.
func truncatingServer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	srv := fakeUDP(t, func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr) {
		tc := &dnsmsg.Message{Header: q.Header, Questions: q.Questions}
		tc.Header.Response, tc.Header.Truncated = true, true
		if b, err := tc.Pack(); err == nil {
			conn.WriteToUDP(b, from)
		}
	})
	ln, err := net.Listen("tcp", srv.LocalAddr().String())
	if err != nil {
		t.Skipf("the UDP server's port is taken over TCP: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // closed at cleanup
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return srv.LocalAddr().String()
}

// nxServer answers NXDOMAIN to everything and reports each query's
// source port on the returned channel, which holds up to n.
func nxServer(t *testing.T, n int) (string, <-chan int) {
	ports := make(chan int, n)
	srv := fakeUDP(t, func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr) {
		m := &dnsmsg.Message{Header: q.Header, Questions: q.Questions}
		m.Header.Response, m.Header.RCode = true, dnsmsg.RCodeNXDomain
		b, err := m.Pack()
		if err != nil {
			t.Error(err)
			return
		}
		select {
		case ports <- from.Port:
		default:
			t.Error("more queries than the test sent")
		}
		conn.WriteToUDP(b, from)
	})
	return srv.LocalAddr().String(), ports
}

// TestSocketsPerQuery pins what each client setting costs in sockets and
// source ports over N sequential queries, and that
// resolver.sockets.opened reports it: the default client dials one
// socket per query; the scanner's carries each socket across
// ScannerQueriesPerSocket queries, so N queries use at most ⌈N/M⌉. The
// context can end, as the scanner's does, so each lookup watches it.
func TestSocketsPerQuery(t *testing.T) {
	const m = ScannerQueriesPerSocket
	const n = 2*m + 1
	for _, qps := range []int{0, 1, m} {
		t.Run(fmt.Sprint(qps), func(t *testing.T) {
			addr, ports := nxServer(t, n)
			reg := obs.NewRegistry()
			c := &Client{ServerAddr: addr, Timeout: 2 * time.Second, Obs: reg, QueriesPerSocket: qps}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := map[int]bool{}
			for i := 0; i < n; i++ {
				if _, err := c.LookupTXT(ctx, fmt.Sprintf("q%d.test", i)); !IsNotFound(err) {
					t.Fatalf("query %d: %v, want NXDOMAIN", i, err)
				}
				seen[<-ports] = true
			}
			snap := reg.Snapshot()
			opened, total := snap.Counters["resolver.sockets.opened"], snap.Counters["resolver.queries.total"]
			if total != n {
				t.Fatalf("resolver.queries.total = %d, want %d", total, n)
			}
			if qps <= 1 {
				// A closed socket's port may come back for a later one, so
				// the sockets are counted, and the ports only roughly.
				if opened != n || len(seen) <= n/2 {
					t.Errorf("default client: %d sockets, %d distinct ports for %d queries, want a socket and a port per query", opened, len(seen), n)
				}
				return
			}
			if bound := (n + m - 1) / m; opened > int64(bound) || len(seen) > bound {
				t.Errorf("scanner client: %d sockets, %d distinct ports for %d queries, want at most %d", opened, len(seen), n, bound)
			}
		})
	}
}

// TestSocketsOpenedUnderConcurrency: K concurrent callers each hold their
// own socket, so the scanner's client opens at most ⌈queries/M⌉ + K.
func TestSocketsOpenedUnderConcurrency(t *testing.T) {
	const k, per = 8, 48
	addr, ports := nxServer(t, k*per)
	reg := obs.NewRegistry()
	c := &Client{ServerAddr: addr, Timeout: 2 * time.Second, Obs: reg, QueriesPerSocket: ScannerQueriesPerSocket}
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.LookupTXT(context.Background(), fmt.Sprintf("w%d-q%d.test", w, i)); !IsNotFound(err) {
					t.Errorf("worker %d query %d: %v, want NXDOMAIN", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(ports) != k*per {
		t.Fatalf("server saw %d queries, want %d", len(ports), k*per)
	}
	opened := reg.Snapshot().Counters["resolver.sockets.opened"]
	if bound := (k*per+ScannerQueriesPerSocket-1)/ScannerQueriesPerSocket + k; opened > int64(bound) {
		t.Errorf("%d sockets for %d queries from %d callers, want at most %d", opened, k*per, k, bound)
	}
}

// TestConcurrentLookupsOnReusedSockets is TestConcurrentLookupsGetTheirOwnAnswers
// on the scanner's setting: sockets carried between queries must still
// hand each caller its own answer, and no socket may be on the free
// list twice, which is what two callers sharing one would leave.
func TestConcurrentLookupsOnReusedSockets(t *testing.T) {
	c := lookupConcurrently(t, ScannerQueriesPerSocket)
	c.socks.mu.Lock()
	defer c.socks.mu.Unlock()
	onList := map[net.Conn]bool{}
	for _, s := range c.socks.free {
		if onList[s.conn] {
			t.Errorf("socket %v is on the free list twice", s.conn.LocalAddr())
		}
		onList[s.conn] = true
	}
}

// TestTimedOutQueryRetiresSocket: a query that times out closes its
// socket, so the next query leaves from a new port and the answer that
// arrives late is never read, let alone taken for the next query's.
func TestTimedOutQueryRetiresSocket(t *testing.T) {
	var n atomic.Int32
	lateSent := make(chan struct{})
	ports := make(chan int, 3)
	srv := fakeUDP(t, func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr) {
		ports <- from.Port
		if n.Add(1) != 2 {
			conn.WriteToUDP(answer(t, q, "right", nil), from)
			return
		}
		// The second query is answered after the client gave up.
		time.AfterFunc(300*time.Millisecond, func() {
			defer close(lateSent)
			conn.WriteToUDP(answer(t, q, "late", nil), from)
		})
	})
	reg := obs.NewRegistry()
	c := &Client{ServerAddr: srv.LocalAddr().String(), Timeout: 100 * time.Millisecond,
		Obs: reg, QueriesPerSocket: ScannerQueriesPerSocket}
	ctx := context.Background()
	if got, err := c.LookupTXT(ctx, "asked.test"); err != nil || len(got) != 1 || got[0] != "right" {
		t.Fatalf("first query = %q, %v", got, err)
	}
	if _, err := c.LookupTXT(ctx, "asked.test"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second query: %v, want a timeout", err)
	}
	<-lateSent
	if got, err := c.LookupTXT(ctx, "asked.test"); err != nil || len(got) != 1 || got[0] != "right" {
		t.Errorf("third query = %q, %v, want [right]", got, err)
	}
	p1, p2, p3 := <-ports, <-ports, <-ports
	if p1 != p2 {
		t.Errorf("second query left from port %d, not the first's %d: the clean socket was not reused", p2, p1)
	}
	if p3 == p2 {
		t.Errorf("third query left from port %d, the timed-out query's", p3)
	}
	if got := reg.Snapshot().Counters["resolver.sockets.opened"]; got != 2 {
		t.Errorf("resolver.sockets.opened = %d, want 2", got)
	}
}

// TestDroppedQueryRetiresSocket is the same rule against the in-process
// server: while it drops queries, each one times out on a socket that
// is then closed, and the next query dials a new one.
func TestDroppedQueryRetiresSocket(t *testing.T) {
	srv, c := startServer(t)
	reg := obs.NewRegistry()
	c.Cache, c.Obs, c.Timeout, c.QueriesPerSocket = nil, reg, 100*time.Millisecond, ScannerQueriesPerSocket
	ctx := context.Background()
	opened := func() int64 { return reg.Snapshot().Counters["resolver.sockets.opened"] }
	if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
		t.Fatal(err)
	}
	srv.SetBehavior(dnsserver.BehaviorDrop)
	if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped query: %v, want a timeout", err)
	}
	if got := opened(); got != 1 {
		t.Errorf("the dropped query dialled: %d sockets, want the first one reused", got)
	}
	srv.SetBehavior(dnsserver.BehaviorNormal)
	for i := 0; i < 2; i++ {
		if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
			t.Fatal(err)
		}
	}
	if got := opened(); got != 2 {
		t.Errorf("%d sockets after the drop, want 2: a new one, then reused", got)
	}
}

// TestIdleSocketNotReused: a socket last used more than idleSocket ago
// is closed at the next checkout instead of carrying another query.
func TestIdleSocketNotReused(t *testing.T) {
	_, c := startServer(t)
	reg := obs.NewRegistry()
	c.Cache, c.Obs, c.QueriesPerSocket = nil, reg, ScannerQueriesPerSocket
	ctx := context.Background()
	if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
		t.Fatal(err)
	}
	c.socks.mu.Lock()
	idle := c.socks.free[0]
	c.socks.mu.Unlock()

	fresh, err := c.takeSocket(ctx, idle.used.Add(idleSocket))
	if err != nil || fresh.conn != idle.conn {
		t.Fatalf("a socket idle exactly idleSocket was not reused: %v", err)
	}
	c.putSocket(fresh, true)

	s, err := c.takeSocket(ctx, fresh.used.Add(idleSocket+time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.putSocket(s, false)
	if s.conn == idle.conn {
		t.Fatal("a socket idle past idleSocket was reused")
	}
	if _, err := idle.conn.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("the idle socket is still open: write = %v", err)
	}
	if got := reg.Snapshot().Counters["resolver.sockets.opened"]; got != 2 {
		t.Errorf("resolver.sockets.opened = %d, want 2", got)
	}
}

// TestUndecodableDatagramIsStray: a datagram that does not decode is a
// stray like a wrong-ID reply, not a failed exchange: the lookup keeps
// reading and takes the answer that follows it, on both settings. When
// no answer follows, the lookup waits out its deadline and reports
// ErrBadMessage, counted as badmsg, not a timeout.
func TestUndecodableDatagramIsStray(t *testing.T) {
	srv := fakeUDP(t, func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr) {
		conn.WriteToUDP([]byte{1, 2, 3}, from)
		conn.WriteToUDP(answer(t, q, "right", nil), from)
	})
	garbage := fakeUDP(t, func(conn *net.UDPConn, q *dnsmsg.Message, from *net.UDPAddr) {
		conn.WriteToUDP([]byte{1, 2, 3}, from)
	})
	for _, qps := range []int{0, ScannerQueriesPerSocket} {
		c := &Client{ServerAddr: srv.LocalAddr().String(), Timeout: 2 * time.Second, QueriesPerSocket: qps}
		for i := 0; i < 3; i++ {
			got, err := c.LookupTXT(context.Background(), "asked.test")
			if err != nil || len(got) != 1 || got[0] != "right" {
				t.Errorf("QueriesPerSocket %d, query %d: LookupTXT = %q, %v, want [right]", qps, i, got, err)
			}
		}

		reg := obs.NewRegistry()
		c = &Client{ServerAddr: garbage.LocalAddr().String(), Timeout: 100 * time.Millisecond,
			QueriesPerSocket: qps, MaxAttempts: 1, Obs: reg}
		ctx, cancel := context.WithCancel(context.Background())
		_, err := c.LookupTXT(ctx, "asked.test")
		cancel()
		if !errors.Is(err, ErrBadMessage) {
			t.Errorf("QueriesPerSocket %d, only garbage: err = %v, want ErrBadMessage", qps, err)
		}
		snap := reg.Snapshot().Counters
		if snap["resolver.query.errors.badmsg"] != 1 || snap["resolver.query.errors.timeout"] != 0 {
			t.Errorf("QueriesPerSocket %d, only garbage: badmsg = %d, timeout = %d, want 1 and 0", qps,
				snap["resolver.query.errors.badmsg"], snap["resolver.query.errors.timeout"])
		}
	}
}

// TestCancelledLookupReturns: a lookup whose context is cancelled while
// its query goes unanswered returns context.Canceled then, not at the
// timeout, and its socket is retired. A context that reaches its
// deadline still reads as a timeout.
func TestCancelledLookupReturns(t *testing.T) {
	for _, qps := range []int{0, ScannerQueriesPerSocket} {
		srv, c := startServer(t)
		reg := obs.NewRegistry()
		c.Cache, c.Obs, c.Timeout, c.QueriesPerSocket = nil, reg, 2*time.Second, qps
		if _, err := c.LookupTXT(context.Background(), "_mta-sts.example.com"); err != nil {
			t.Fatal(err)
		}
		srv.SetBehavior(dnsserver.BehaviorDrop)
		for _, after := range []time.Duration{time.Millisecond, 50 * time.Millisecond} {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(after, cancel)
			start := time.Now()
			_, err := c.LookupTXT(ctx, "_mta-sts.example.com")
			took := time.Since(start)
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("QueriesPerSocket %d, cancelled after %v: err = %v, want context.Canceled", qps, after, err)
			}
			if took > after+500*time.Millisecond {
				t.Errorf("QueriesPerSocket %d, cancelled after %v: returned after %v", qps, after, took)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := c.LookupTXT(ctx, "_mta-sts.example.com")
		cancel()
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("QueriesPerSocket %d, context deadline: err = %v, want ErrTimeout", qps, err)
		}
		srv.SetBehavior(dnsserver.BehaviorNormal)
		if _, err := c.LookupTXT(context.Background(), "_mta-sts.example.com"); err != nil {
			t.Fatal(err)
		}
		// Five queries: with reuse, the first failed one takes the first
		// query's socket; every failed socket is retired, so the last
		// query dials.
		want := int64(5)
		if qps > 1 {
			want = 4
		}
		if got := reg.Snapshot().Counters["resolver.sockets.opened"]; got != want {
			t.Errorf("QueriesPerSocket %d: resolver.sockets.opened = %d, want %d", qps, got, want)
		}
	}
}

// BenchmarkLookupUncached times one uncached lookup against the
// in-process server over loopback, with the sender's one socket per
// query and with the scanner's reused sockets. The server's share of the
// work is in both.
func BenchmarkLookupUncached(b *testing.B) {
	for _, bc := range []struct {
		name string
		qps  int
	}{{"per_query", 0}, {"reused", ScannerQueriesPerSocket}} {
		b.Run(bc.name, func(b *testing.B) {
			_, c := startServer(b)
			c.Cache, c.QueriesPerSocket = nil, bc.qps
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.LookupTXT(ctx, "_mta-sts.example.com"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
