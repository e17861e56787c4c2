package resolver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/retry"
	"github.com/netsecurelab/mtasts/internal/sf"
	"github.com/netsecurelab/mtasts/internal/strutil"
)

// Lookup errors, typed into the scan error taxonomy (docs/ERRORS.md).
// NXDomain and NoData are distinguished because MTA-STS discovery treats
// them identically ("no record") while the scanner's DNS error taxonomy
// does not. The transient bit each sentinel carries is what the retry
// layer keys off (errtax.Transient): authoritative verdicts — NXDOMAIN,
// NODATA, a CNAME loop — are never retried, while timeouts and
// SERVFAIL/REFUSED/garbled-reply blips are.
var (
	ErrNXDomain   = errtax.New(errtax.LayerDNS, errtax.CodeNXDomain, false, "resolver: name does not exist (NXDOMAIN)")
	ErrNoData     = errtax.New(errtax.LayerDNS, errtax.CodeNoData, false, "resolver: name exists but has no records of requested type")
	ErrServFail   = errtax.New(errtax.LayerDNS, errtax.CodeServFail, true, "resolver: server failure (SERVFAIL)")
	ErrRefused    = errtax.New(errtax.LayerDNS, errtax.CodeRefused, true, "resolver: query refused")
	ErrTimeout    = errtax.New(errtax.LayerDNS, errtax.CodeTimeout, true, "resolver: query timed out")
	ErrBadMessage = errtax.New(errtax.LayerDNS, errtax.CodeBadDNSMessage, true, "resolver: malformed response")
	ErrCNAMELoop  = errtax.New(errtax.LayerDNS, errtax.CodeCNAMELoop, false, "resolver: CNAME chain too long")
)

// IsNotFound reports whether err is NXDOMAIN or NODATA — the two outcomes
// RFC 8461 treats as "MTA-STS not supported".
func IsNotFound(err error) bool {
	return errors.Is(err, ErrNXDomain) || errors.Is(err, ErrNoData)
}

// Client resolves DNS queries against a fixed server address. It is safe
// for concurrent use.
type Client struct {
	// ServerAddr is the "host:port" of the authoritative/recursive server.
	ServerAddr string
	// Timeout bounds each network exchange. Zero means 3s.
	Timeout time.Duration
	// MaxCNAME bounds cross-restart CNAME chasing. Zero means 8.
	MaxCNAME int
	// Limiter, when non-nil, gates outgoing queries.
	Limiter *RateLimiter
	// Cache, when non-nil, stores responses by (name, type) up to TTL.
	Cache *Cache
	// Obs, when non-nil, receives query latencies, error-taxonomy
	// counters, TCP-fallback and rate-limit-wait counters, and cache
	// effectiveness gauges (see docs/OBSERVABILITY.md). A nil registry
	// costs one pointer check per query.
	Obs *obs.Registry
	// MaxAttempts bounds attempts per query, retrying transient failures
	// (timeouts, SERVFAIL/REFUSED, malformed replies) with backoff.
	// Zero or one means a single attempt.
	MaxAttempts int
	// RetryBase overrides the first backoff delay (default 100ms).
	RetryBase time.Duration
	// QueriesPerSocket lets one connected UDP socket carry up to this
	// many queries, one at a time, before it is closed. Zero or one, the
	// default, dials a fresh socket, hence a fresh source port, for every
	// query, as a sender's client must (RFC 5452 §9.2); the scanner's
	// clients set ScannerQueriesPerSocket. A socket is also closed after
	// any failed exchange, when it was last used more than idleSocket
	// ago, and when the free list is full (doc.go).
	QueriesPerSocket int

	obsOnce sync.Once
	// socks is the free list of connected UDP sockets that
	// QueriesPerSocket > 1 keeps between queries.
	socks sockets
	// flight coalesces concurrent identical (name, type) queries into
	// one wire exchange whose answer fans out to every waiter
	// (resolver.queries.coalesced counts the joins). Workers scanning
	// overlapping MX sets would otherwise race past the cache and send
	// duplicate queries back to back.
	flight sf.Group[coalesced]
}

// ScannerQueriesPerSocket is the QueriesPerSocket of every scanner-side
// client. In a sweep over 8, 16, 32 and 64, an uncached lookup cost the
// same at 16, 32 and 64 and more at 8; 16 is the smallest of those, so
// a port carries the fewest queries (ROADMAP.md, item 1(a)).
const ScannerQueriesPerSocket = 16

const (
	// idleSocket is how long after its last use a socket on the free
	// list may still be reused; an older one is closed at checkout.
	idleSocket = time.Second
	// maxIdleSockets bounds the free list: a socket returned to a full
	// list is closed. It covers the scanner's default 16 workers in each
	// of the three stages that resolve names.
	maxIdleSockets = 64
)

// udpSock is one connected UDP socket and what its reuse depends on.
type udpSock struct {
	conn net.Conn
	uses int       // queries it has been checked out for
	used time.Time // when it was last checked out
	// expire moves conn's read deadline to the past. It is built by the
	// first query that watches a context and kept for the socket's later
	// queries, so a reused socket's watch allocates only what
	// context.AfterFunc does.
	expire func()
}

// sockets is a LIFO free list: the socket returned last is reused
// first, so the sockets idle longest sink to the bottom.
type sockets struct {
	mu   sync.Mutex
	free []udpSock
}

// coalesced is a completed query outcome as shared between coalesced
// callers. A leader panic hands waiters the zero value, which reads as
// NODATA — wrong answer beats deadlock, and the panic still propagates
// on the leader.
type coalesced struct {
	rrs   []dnsmsg.RR
	cname string
	err   error
}

// New returns a Client for the given server with a small shared cache.
func New(serverAddr string) *Client {
	return &Client{
		ServerAddr: serverAddr,
		Timeout:    3 * time.Second,
		Cache:      NewCache(4096),
	}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 3 * time.Second
	}
	return c.Timeout
}

func (c *Client) maxCNAME() int {
	if c.MaxCNAME <= 0 {
		return 8
	}
	return c.MaxCNAME
}

// replyBuf is the scratch one reply is read into: the largest DNS message
// either transport can carry. Pooled by pointer so a Put does not allocate.
type replyBuf [65535]byte

var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

// Lookup resolves (name, type), following CNAME chains across query
// restarts, and returns the final RRset (CNAME records are not included).
// The returned records all have the requested type.
func (c *Client) Lookup(ctx context.Context, name string, t dnsmsg.Type) ([]dnsmsg.RR, error) {
	cur := strutil.CanonicalName(name)
	for depth := 0; depth <= c.maxCNAME(); depth++ {
		rrs, cname, err := c.queryOnce(ctx, cur, t)
		if err != nil {
			return nil, err
		}
		if len(rrs) > 0 {
			return rrs, nil
		}
		if cname == "" {
			return nil, fmt.Errorf("%w: %s %s", ErrNoData, cur, t)
		}
		cur = cname
	}
	return nil, ErrCNAMELoop
}

// LookupCNAME returns the CNAME target at name, or ErrNoData when name has
// no CNAME.
func (c *Client) LookupCNAME(ctx context.Context, name string) (string, error) {
	rrs, _, err := c.queryOnce(ctx, strutil.CanonicalName(name), dnsmsg.TypeCNAME)
	if err != nil {
		return "", err
	}
	for _, rr := range rrs {
		if cd, ok := rr.Data.(dnsmsg.CNAMEData); ok {
			return strutil.CanonicalName(cd.Target), nil
		}
	}
	return "", fmt.Errorf("%w: %s CNAME", ErrNoData, name)
}

// LookupTXT returns the logical values of TXT records at name.
func (c *Client) LookupTXT(ctx context.Context, name string) ([]string, error) {
	rrs, err := c.Lookup(ctx, name, dnsmsg.TypeTXT)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rrs))
	for _, rr := range rrs {
		if td, ok := rr.Data.(dnsmsg.TXTData); ok {
			out = append(out, td.Joined())
		}
	}
	return out, nil
}

// MX is a resolved mail exchange.
type MX struct {
	Preference uint16
	Host       string
}

// LookupMX returns the MX records at name sorted by preference.
func (c *Client) LookupMX(ctx context.Context, name string) ([]MX, error) {
	rrs, err := c.Lookup(ctx, name, dnsmsg.TypeMX)
	if err != nil {
		return nil, err
	}
	out := make([]MX, 0, len(rrs))
	for _, rr := range rrs {
		if md, ok := rr.Data.(dnsmsg.MXData); ok {
			out = append(out, MX{Preference: md.Preference, Host: strutil.CanonicalName(md.Host)})
		}
	}
	// Insertion sort by preference keeps equal-preference order stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Preference < out[j-1].Preference; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// LookupAddrs returns A (and, when includeV6 is set, AAAA) addresses.
func (c *Client) LookupAddrs(ctx context.Context, name string, includeV6 bool) ([]netip.Addr, error) {
	var out []netip.Addr
	rrs, err := c.Lookup(ctx, name, dnsmsg.TypeA)
	if err != nil && !IsNotFound(err) {
		return nil, err
	}
	for _, rr := range rrs {
		if ad, ok := rr.Data.(dnsmsg.AData); ok {
			out = append(out, ad.Addr)
		}
	}
	if includeV6 {
		rrs6, err6 := c.Lookup(ctx, name, dnsmsg.TypeAAAA)
		if err6 != nil && !IsNotFound(err6) {
			return nil, err6
		}
		for _, rr := range rrs6 {
			if ad, ok := rr.Data.(dnsmsg.AAAAData); ok {
				out = append(out, ad.Addr)
			}
		}
	}
	if len(out) == 0 {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s A/AAAA", ErrNoData, name)
	}
	return out, nil
}

// queryOnce performs a single query. On a CNAME-only answer it returns the
// final CNAME target for the caller to restart with; records matching t are
// returned directly.
func (c *Client) queryOnce(ctx context.Context, name string, t dnsmsg.Type) (rrs []dnsmsg.RR, cname string, err error) {
	clk := clock.From(ctx)
	if c.Cache != nil {
		if ce, ok := c.Cache.Get(clk.Now(), name, t); ok {
			return ce.rrs, ce.cname, ce.err
		}
	}
	// The retry loop and the cache store run once per coalesced group,
	// under the leader's context; joiners inherit the leader's answer
	// without touching the wire.
	v, shared := c.flight.Do(name+"\x00"+strconv.Itoa(int(t)), func() coalesced {
		var res coalesced
		res.err = c.retryPolicy().Do(ctx, func(ctx context.Context) error {
			var opErr error
			res.rrs, res.cname, opErr = c.exchange(ctx, name, t)
			return opErr
		})
		if c.Cache != nil {
			// Positive answers cache by minimum TTL; of the negatives only
			// NXDOMAIN is cached, briefly. Transient failures — SERVFAIL,
			// REFUSED, timeouts, malformed replies — are never cached: a
			// one-off blip must not poison every later query for this
			// (name, type) in the run. (NODATA surfaces here as a nil error
			// with an empty RRset, so it caches on the positive path.)
			var ttl time.Duration
			switch {
			case res.err == nil:
				ttl = minTTL(res.rrs)
			case errors.Is(res.err, ErrNXDomain):
				ttl = 30 * time.Second
			}
			if ttl > 0 {
				c.Cache.Put(clk.Now(), name, t, entry{rrs: res.rrs, cname: res.cname, err: res.err}, ttl)
			}
		}
		return res
	})
	if shared {
		c.Obs.Counter("resolver.queries.coalesced").Inc()
	}
	return v.rrs, v.cname, v.err
}

func (c *Client) retryPolicy() retry.Policy {
	return retry.Policy{
		Name:        "resolver",
		MaxAttempts: c.MaxAttempts,
		BaseDelay:   c.RetryBase,
		// Transient is left nil: retry defaults to errtax.Transient, which
		// reads each sentinel's transient bit and falls back to the shared
		// socket-level heuristic for untyped errors.
		Obs: c.Obs,
	}
}

func minTTL(rrs []dnsmsg.RR) time.Duration {
	minV := uint32(300)
	for i, rr := range rrs {
		if i == 0 || rr.TTL < minV {
			minV = rr.TTL
		}
	}
	if minV == 0 {
		minV = 1
	}
	if minV > 3600 {
		minV = 3600
	}
	return time.Duration(minV) * time.Second
}

// obsInit registers the snapshot-time cache gauges once per client.
func (c *Client) obsInit() {
	if c.Obs == nil {
		return
	}
	c.obsOnce.Do(func() {
		cache := c.Cache
		if cache == nil {
			return
		}
		c.Obs.GaugeFunc("resolver.cache.entries", func() int64 {
			//lint:ignore semtime measurement: a gauge scrape counts the entries live at scrape time
			return int64(cache.Len(time.Now()))
		})
		c.Obs.GaugeFunc("resolver.cache.hits", func() int64 { return cache.Stats().Hits })
		c.Obs.GaugeFunc("resolver.cache.misses", func() int64 { return cache.Stats().Misses })
		c.Obs.GaugeFunc("resolver.cache.expired", func() int64 { return cache.Stats().Expired })
		c.Obs.GaugeFunc("resolver.cache.evictions", func() int64 { return cache.Stats().Evictions })
	})
}

// errKind maps a lookup error onto its taxonomy segment for
// resolver.query.errors.<kind> counters.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrNXDomain):
		return "nxdomain"
	case errors.Is(err, ErrNoData):
		return "nodata"
	case errors.Is(err, ErrServFail):
		return "servfail"
	case errors.Is(err, ErrRefused):
		return "refused"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrBadMessage):
		return "badmsg"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	}
	return "other"
}

func (c *Client) exchange(ctx context.Context, name string, t dnsmsg.Type) ([]dnsmsg.RR, string, error) {
	c.obsInit()
	if !c.Obs.Enabled() {
		return c.doExchange(ctx, name, t)
	}
	c.Obs.Counter("resolver.queries.total").Inc()
	//lint:ignore semtime measurement: the query-latency histogram times wall seconds
	start := time.Now()
	rrs, cname, err := c.doExchange(ctx, name, t)
	c.Obs.Histogram("resolver.query.seconds", nil).ObserveSince(start)
	if err != nil {
		c.Obs.Counter("resolver.query.errors." + errKind(err)).Inc()
	}
	return rrs, cname, err
}

func (c *Client) doExchange(ctx context.Context, name string, t dnsmsg.Type) ([]dnsmsg.RR, string, error) {
	if c.Limiter != nil {
		var waitStart time.Time
		if c.Obs.Enabled() {
			//lint:ignore semtime measurement: the rate-limit wait histogram times wall seconds
			waitStart = time.Now()
		}
		if err := c.Limiter.Wait(ctx); err != nil {
			return nil, "", err
		}
		if c.Obs.Enabled() {
			//lint:ignore semtime measurement: the rate-limit wait histogram times wall seconds
			waited := time.Since(waitStart)
			c.Obs.Histogram("resolver.ratelimit.wait_seconds", nil).ObserveDuration(waited)
			if waited >= time.Millisecond {
				c.Obs.Counter("resolver.ratelimit.waits").Inc()
			}
		}
	}
	// An ID from the OS-seeded generator and a kernel-chosen source port
	// are what an off-path spoofer has to guess (RFC 5452).
	query := dnsmsg.NewQuery(uint16(rand.Uint32()), name, t)
	wire, err := query.Pack()
	if err != nil {
		return nil, "", fmt.Errorf("resolver: packing query for %q: %w", name, err)
	}

	resp, err := c.exchangeUDP(ctx, wire, query)
	if err != nil {
		return nil, "", err
	}
	if resp.Header.Truncated {
		c.Obs.Counter("resolver.queries.tcp_fallbacks").Inc()
		resp, err = c.exchangeTCP(ctx, wire, query)
		if err != nil {
			return nil, "", err
		}
	}
	return interpret(resp, name, t)
}

// isReplyTo reports whether m answers query: the same ID, the QR bit
// and the same question, its name compared case-insensitively (RFC 5452
// §9.1). A reused socket sees more than one question, so the ID alone
// is not enough.
func isReplyTo(m, query *dnsmsg.Message) bool {
	if m.Header.ID != query.Header.ID || !m.Header.Response || len(m.Questions) != 1 {
		return false
	}
	got, want := m.Questions[0], query.Questions[0]
	return got.Type == want.Type && got.Class == want.Class && strings.EqualFold(got.Name, want.Name)
}

// dialUDP opens a fresh socket, hence a fresh ephemeral source port. A
// literal ServerAddr, the usual case, is dialled directly; only a
// hostname goes through the Dialer's name resolution.
func (c *Client) dialUDP(ctx context.Context) (net.Conn, error) {
	ap, err := netip.ParseAddrPort(c.ServerAddr)
	if err != nil {
		var d net.Dialer
		return d.DialContext(ctx, "udp", c.ServerAddr)
	}
	return net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(ap))
}

// takeSocket checks a socket out for one query at now: the free list's
// most recently used one if it was used within idleSocket, else a fresh
// dial. Each checkout also closes the list's oldest socket if it is
// past idleSocket, so a client whose load falls drains what it no
// longer needs.
func (c *Client) takeSocket(ctx context.Context, now time.Time) (udpSock, error) {
	if err := ctx.Err(); err != nil {
		return udpSock{}, err
	}
	var s, stale udpSock
	if c.QueriesPerSocket > 1 {
		c.socks.mu.Lock()
		free := c.socks.free
		if len(free) > 0 && now.Sub(free[0].used) > idleSocket {
			stale = free[0]
			free = append(free[:0], free[1:]...)
		}
		if n := len(free); n > 0 && now.Sub(free[n-1].used) <= idleSocket {
			s = free[n-1]
			free = free[:n-1]
		}
		c.socks.free = free
		c.socks.mu.Unlock()
		if stale.conn != nil {
			//lint:ignore errdrop closing a UDP socket sends nothing, so there is no error to act on
			stale.conn.Close()
		}
	}
	if s.conn == nil {
		conn, err := c.dialUDP(ctx)
		if err != nil {
			return udpSock{}, err
		}
		c.Obs.Counter("resolver.sockets.opened").Inc()
		s.conn = conn
	}
	s.uses++
	s.used = now
	return s, nil
}

// putSocket ends a checkout. After a clean exchange s goes back on the
// free list, unless it has carried QueriesPerSocket queries or the list
// is full; after any failed one it is closed, so nothing still in
// flight towards its port can be read as a later query's answer.
func (c *Client) putSocket(s udpSock, clean bool) {
	if clean && s.uses < c.QueriesPerSocket {
		c.socks.mu.Lock()
		if len(c.socks.free) < maxIdleSockets {
			c.socks.free = append(c.socks.free, s)
			c.socks.mu.Unlock()
			return
		}
		c.socks.mu.Unlock()
	}
	//lint:ignore errdrop closing a UDP socket sends nothing, so there is no error to act on
	s.conn.Close()
}

func (c *Client) exchangeUDP(ctx context.Context, wire []byte, query *dnsmsg.Message) (*dnsmsg.Message, error) {
	//lint:ignore semtime the kernel judges socket deadlines by wall time
	now := time.Now()
	s, err := c.takeSocket(ctx, now)
	if err != nil {
		return nil, fmt.Errorf("resolver: dial udp %s: %w", c.ServerAddr, err)
	}
	m, err := c.roundTripUDP(ctx, &s, now, wire, query)
	c.putSocket(s, err == nil)
	return m, err
}

// roundTripUDP sends wire on conn and reads until a reply to query
// arrives or the deadline passes. Datagrams that do not decode, or
// answer something else, are strays and are skipped; if the deadline
// passes after one that did not decode, the exchange fails with
// ErrBadMessage rather than ErrTimeout. A lookup whose context can end
// watches it through context.AfterFunc, which moves the socket's
// deadline to the past, so a cancelled lookup returns context.Canceled
// when it is cancelled. Any error retires the socket.
func (c *Client) roundTripUDP(ctx context.Context, s *udpSock, now time.Time, wire []byte, query *dnsmsg.Message) (*dnsmsg.Message, error) {
	conn := s.conn
	deadline := now.Add(c.timeout())
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	// The deadline goes first, so a cancellation that fires as the watch
	// starts is not overwritten.
	conn.SetDeadline(deadline)
	stop := func() bool { return true }
	if ctx.Done() != nil {
		if s.expire == nil {
			s.expire = func() { conn.SetReadDeadline(time.Unix(1, 0)) }
		}
		stop = context.AfterFunc(ctx, s.expire)
		defer stop()
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, fmt.Errorf("resolver: send: %w", err)
	}
	buf := replyBufs.Get().(*replyBuf)
	defer replyBufs.Put(buf)
	var badMsg error // the last datagram that did not decode
	for {
		n, err := conn.Read(buf[:])
		if err != nil {
			var ne net.Error
			switch {
			case errors.Is(ctx.Err(), context.Canceled):
				return nil, ctx.Err()
			case !errors.As(err, &ne) || !ne.Timeout():
				return nil, fmt.Errorf("resolver: recv: %w", err)
			case badMsg != nil:
				return nil, fmt.Errorf("%w: %v", ErrBadMessage, badMsg)
			}
			return nil, fmt.Errorf("%w: udp %s", ErrTimeout, c.ServerAddr)
		}
		m, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			badMsg = err
			continue // stray datagram; keep reading until deadline
		}
		if !isReplyTo(m, query) {
			continue
		}
		if !stop() {
			// ctx ended as the reply arrived, and its watch may still be
			// moving the deadline: retire the socket.
			if errors.Is(ctx.Err(), context.Canceled) {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%w: udp %s", ErrTimeout, c.ServerAddr)
		}
		return m, nil
	}
}

// exchangeTCP retries a truncated exchange over TCP (RFC 7766). Like
// roundTripUDP it watches a context that can end through
// context.AfterFunc, so a cancelled lookup returns context.Canceled when
// it is cancelled, not at the deadline.
func (c *Client) exchangeTCP(ctx context.Context, wire []byte, query *dnsmsg.Message) (*dnsmsg.Message, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", c.ServerAddr)
	if err != nil {
		return nil, fmt.Errorf("resolver: dial tcp %s: %w", c.ServerAddr, err)
	}
	defer conn.Close()
	//lint:ignore semtime the kernel judges socket deadlines by wall time
	deadline := time.Now().Add(c.timeout())
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })()
	}
	out := make([]byte, 2+len(wire))
	out[0], out[1] = byte(len(wire)>>8), byte(len(wire))
	copy(out[2:], wire)
	if _, err := conn.Write(out); err != nil {
		return nil, tcpErr(ctx, "send", err)
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, tcpErr(ctx, "recv", err)
	}
	buf := replyBufs.Get().(*replyBuf)
	defer replyBufs.Put(buf)
	msg := buf[:int(lenBuf[0])<<8|int(lenBuf[1])]
	if _, err := io.ReadFull(conn, msg); err != nil {
		return nil, tcpErr(ctx, "recv", err)
	}
	m, err := dnsmsg.Unpack(msg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if !isReplyTo(m, query) {
		return nil, fmt.Errorf("%w: mismatched tcp response", ErrBadMessage)
	}
	return m, nil
}

// tcpErr types a failed TCP send or receive: the context's error when
// it was cancelled, ErrTimeout when the deadline (the context's too)
// passed.
func tcpErr(ctx context.Context, op string, err error) error {
	var ne net.Error
	switch {
	case errors.Is(ctx.Err(), context.Canceled):
		return ctx.Err()
	case errors.As(err, &ne) && ne.Timeout():
		return fmt.Errorf("%w: tcp", ErrTimeout)
	}
	return fmt.Errorf("resolver: tcp %s: %w", op, err)
}

// interpret maps a response message to (matched records, last CNAME target,
// error).
func interpret(m *dnsmsg.Message, name string, t dnsmsg.Type) ([]dnsmsg.RR, string, error) {
	switch m.Header.RCode {
	case dnsmsg.RCodeSuccess:
	case dnsmsg.RCodeNXDomain:
		return nil, "", fmt.Errorf("%w: %s", ErrNXDomain, name)
	case dnsmsg.RCodeServFail:
		return nil, "", fmt.Errorf("%w: %s", ErrServFail, name)
	case dnsmsg.RCodeRefused:
		return nil, "", fmt.Errorf("%w: %s", ErrRefused, name)
	default:
		return nil, "", fmt.Errorf("%w: unexpected rcode %s for %s", ErrBadMessage, m.Header.RCode, name)
	}
	var matched []dnsmsg.RR
	cname := ""
	cur := strutil.CanonicalName(name)
	// Walk the answer section following owner-name/CNAME links, tolerating
	// arbitrary record order.
	for range m.Answers {
		advanced := false
		for _, rr := range m.Answers {
			owner := strutil.CanonicalName(rr.Name)
			if owner != cur {
				continue
			}
			if rr.Type == t {
				matched = append(matched, rr)
			} else if rr.Type == dnsmsg.TypeCNAME && t != dnsmsg.TypeCNAME {
				cd, ok := rr.Data.(dnsmsg.CNAMEData)
				if ok {
					cur = strutil.CanonicalName(cd.Target)
					cname = cur
					advanced = true
				}
			}
		}
		if len(matched) > 0 || !advanced {
			break
		}
	}
	return matched, cname, nil
}
