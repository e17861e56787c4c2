// Package dnsserver implements an authoritative DNS server over UDP and TCP
// serving one or more dnszone.Zone instances. It is the stand-in for the
// authoritative infrastructure the paper's scanners query (TLD registries
// and per-domain name servers), and it supports failure injection so the
// scanner's DNS error paths can be exercised over real sockets.
package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/strutil"
)

// Behavior injects failure modes into the server, modeling broken
// authoritative infrastructure observed in the wild.
type Behavior int

// Supported behaviors.
const (
	// Answer normally (default).
	BehaviorNormal Behavior = iota
	// BehaviorServFail returns SERVFAIL for every query.
	BehaviorServFail
	// BehaviorRefuse returns REFUSED for every query.
	BehaviorRefuse
	// BehaviorDrop silently drops every query (client times out).
	BehaviorDrop
)

// Server is an authoritative DNS server.
type Server struct {
	mu        sync.RWMutex
	zones     map[string]*dnszone.Zone // origin -> zone
	behavior  Behavior
	delay     time.Duration // artificial per-query latency
	faults    *faults.Injector
	adversary *faults.Adversary
	logger    *slog.Logger

	udpConn *net.UDPConn
	tcpLn   net.Listener
	wg      sync.WaitGroup
	closed  chan struct{}

	// QueryCount counts handled queries (for rate-limit tests).
	qmu        sync.Mutex
	queryCount int
}

// New creates a server with no zones. Use AddZone before Start.
func New(logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	}
	return &Server{
		zones:  make(map[string]*dnszone.Zone),
		logger: logger,
		closed: make(chan struct{}),
	}
}

// AddZone registers (or replaces) a zone by its origin.
func (s *Server) AddZone(z *dnszone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin()] = z
}

// RemoveZone drops the zone with the given origin.
func (s *Server) RemoveZone(origin string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.zones, strutil.CanonicalName(origin))
}

// SetBehavior switches the failure-injection mode.
func (s *Server) SetBehavior(b Behavior) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.behavior = b
}

// SetDelay adds artificial latency before each response.
func (s *Server) SetDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay = d
}

// SetFaults installs a per-query fault injector; unlike SetBehavior
// (which fails every query) it decides fate query by query from the
// injector's seeded plan, keyed by the question's (name, type). Nil
// removes it.
func (s *Server) SetFaults(inj *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = inj
}

// SetAdversary installs an on-path attacker that can rewrite
// authoritative answers on the wire (strip or spoof records) before
// they are serialized. Unlike SetFaults, which models benign transient
// failures, the adversary tampers deterministically with specific
// (name, type) answers per its scenario. Nil removes it.
func (s *Server) SetAdversary(adv *faults.Adversary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adversary = adv
}

// QueryCount returns the number of queries handled so far.
func (s *Server) QueryCount() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.queryCount
}

// Start binds UDP and TCP on addr ("127.0.0.1:0" for an ephemeral port) and
// begins serving. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: resolve %q: %w", addr, err)
	}
	// Bind UDP, then TCP on the same port. With an ephemeral port request
	// the kernel picks the UDP port freely, so the matching TCP port may
	// already belong to someone else — re-roll a few times before giving up.
	var conn *net.UDPConn
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		conn, err = net.ListenUDP("udp", udpAddr)
		if err != nil {
			return nil, fmt.Errorf("dnsserver: listen udp: %w", err)
		}
		ln, err = net.Listen("tcp", conn.LocalAddr().String())
		if err == nil {
			break
		}
		err = errors.Join(fmt.Errorf("dnsserver: listen tcp: %w", err), conn.Close())
		if udpAddr.Port != 0 || attempt >= 4 {
			return nil, err
		}
	}
	s.udpConn, s.tcpLn = conn, ln
	s.wg.Add(2)
	go s.serveUDP()
	go s.serveTCP()
	return conn.LocalAddr(), nil
}

// Addr returns the bound address, or nil before Start.
func (s *Server) Addr() net.Addr {
	if s.udpConn == nil {
		return nil
	}
	return s.udpConn.LocalAddr()
}

// Close stops the server and waits for in-flight handlers.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var errs []error
	if s.udpConn != nil {
		errs = append(errs, s.udpConn.Close())
	}
	if s.tcpLn != nil {
		errs = append(errs, s.tcpLn.Close())
	}
	s.wg.Wait()
	return errors.Join(errs...)
}

const maxUDPPayload = 1232 // common EDNS-less safe size; we truncate beyond it

func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, raddr, err := s.udpConn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.logger.Error("udp read", "err", err)
			return
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			resp := s.handlePacket(pkt, "udp")
			if resp == nil {
				return // drop behavior
			}
			if len(resp) > maxUDPPayload {
				// Truncate: resend header with TC bit; client retries over TCP.
				m, err := dnsmsg.Unpack(resp)
				if err == nil {
					m.Header.Truncated = true
					m.Answers, m.Authority, m.Additional = nil, nil, nil
					if tb, err := m.Pack(); err == nil {
						resp = tb
					}
				}
			}
			if _, err := s.udpConn.WriteToUDP(resp, raddr); err != nil {
				s.logger.Error("udp write", "err", err)
			}
		}()
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			s.logger.Error("tcp accept", "err", err)
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveTCPConn(conn)
		}()
	}
}

func (s *Server) serveTCPConn(conn net.Conn) {
	for {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var lenBuf [2]byte
		if _, err := readFull(conn, lenBuf[:]); err != nil {
			return
		}
		msgLen := int(lenBuf[0])<<8 | int(lenBuf[1])
		pkt := make([]byte, msgLen)
		if _, err := readFull(conn, pkt); err != nil {
			return
		}
		resp := s.handlePacket(pkt, "tcp")
		if resp == nil {
			return
		}
		out := make([]byte, 2+len(resp))
		out[0], out[1] = byte(len(resp)>>8), byte(len(resp))
		copy(out[2:], resp)
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func readFull(conn net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := conn.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// handlePacket parses, answers, and serializes one query arriving over
// proto ("udp" or "tcp"). A nil return means the query should be dropped.
func (s *Server) handlePacket(pkt []byte, proto string) []byte {
	s.qmu.Lock()
	s.queryCount++
	s.qmu.Unlock()

	s.mu.RLock()
	behavior, delay, inj, adv := s.behavior, s.delay, s.faults, s.adversary
	s.mu.RUnlock()

	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-s.closed:
			return nil
		}
	}
	if behavior == BehaviorDrop {
		return nil
	}

	query, err := dnsmsg.Unpack(pkt)
	if err != nil || len(query.Questions) != 1 || query.Header.Response {
		// FORMERR with best-effort ID echo.
		resp := &dnsmsg.Message{Header: dnsmsg.Header{Response: true, RCode: dnsmsg.RCodeFormat}}
		if len(pkt) >= 2 {
			resp.Header.ID = uint16(pkt[0])<<8 | uint16(pkt[1])
		}
		b, err := resp.Pack()
		if err != nil {
			s.logger.Error("pack FORMERR response", "err", err)
			return nil
		}
		return b
	}

	resp := s.answer(query)
	// The adversary rewrites the authoritative answer on the wire:
	// stripping a record turns the response into NODATA, spoofing
	// replaces the honest RRset with attacker-controlled records. It
	// runs before behavior/fault overrides so a SERVFAIL blip still
	// masks the tampered answer, exactly as it would on path.
	if q := query.Questions[0]; resp.Header.RCode == dnsmsg.RCodeSuccess {
		if spoofed, ok := adv.DNS(q.Name, q.Type); ok {
			resp.Answers = spoofed
		}
	}
	switch behavior {
	case BehaviorServFail:
		resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
		resp.Header.RCode = dnsmsg.RCodeServFail
	case BehaviorRefuse:
		resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
		resp.Header.RCode = dnsmsg.RCodeRefused
	}

	if inj != nil {
		q := query.Questions[0]
		act, fdelay := inj.DNS(strutil.CanonicalName(q.Name) + "/" + q.Type.String())
		if fdelay > 0 {
			select {
			case <-time.After(fdelay):
			case <-s.closed:
				return nil
			}
		}
		switch act {
		case faults.DNSDrop:
			return nil
		case faults.DNSServFail:
			resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
			resp.Header.RCode = dnsmsg.RCodeServFail
		case faults.DNSRefuse:
			resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
			resp.Header.RCode = dnsmsg.RCodeRefused
		case faults.DNSTruncate:
			// Only meaningful on UDP: force the TC bit so the client
			// retries over TCP, where the same key may fault again.
			if proto == "udp" {
				resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
				resp.Header.Truncated = true
			}
		}
	}
	b, err := resp.Pack()
	if err != nil {
		s.logger.Error("pack response", "err", err)
		// The fallback echoes the question: a client takes a reply only
		// for the question it asked (RFC 5452 §9.1).
		fallback := &dnsmsg.Message{Header: dnsmsg.Header{
			ID: query.Header.ID, Response: true, RCode: dnsmsg.RCodeServFail},
			Questions: query.Questions}
		b, err = fallback.Pack()
		if err != nil {
			// A question-only SERVFAIL failing to pack means the message
			// codec itself is broken; dropping the reply (a DNS timeout
			// for the client) is the only honest response left.
			s.logger.Error("pack fallback SERVFAIL", "err", err)
			return nil
		}
	}
	return b
}

// answer produces the authoritative response for a parsed query.
func (s *Server) answer(query *dnsmsg.Message) *dnsmsg.Message {
	q := query.Questions[0]
	resp := &dnsmsg.Message{
		Header: dnsmsg.Header{
			ID:               query.Header.ID,
			Response:         true,
			OpCode:           query.Header.OpCode,
			RecursionDesired: query.Header.RecursionDesired,
		},
		Questions: query.Questions,
	}
	if query.Header.OpCode != dnsmsg.OpQuery || q.Class != dnsmsg.ClassIN {
		resp.Header.RCode = dnsmsg.RCodeNotImp
		return resp
	}
	zone := s.findZone(q.Name)
	if zone == nil {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	resp.Header.Authoritative = true
	res, err := zone.Lookup(q.Name, q.Type)
	if err != nil {
		resp.Header.RCode = dnsmsg.RCodeServFail
		return resp
	}
	resp.Header.RCode = res.RCode
	resp.Answers = res.Answers
	return resp
}

// findZone returns the registered zone with the longest origin that is a
// suffix of name.
func (s *Server) findZone(name string) *dnszone.Zone {
	name = strutil.CanonicalName(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best *dnszone.Zone
	bestLen := -1
	for origin, z := range s.zones {
		if strutil.HasSuffixFold(name, origin) && len(origin) > bestLen {
			best, bestLen = z, len(origin)
		}
	}
	return best
}

// WaitReady blocks until the server answers a probe query or ctx expires.
// Useful in tests that race Start against first use.
func (s *Server) WaitReady(ctx context.Context) error {
	if s.udpConn == nil {
		return errors.New("dnsserver: not started")
	}
	probe := dnsmsg.NewQuery(1, "ready.probe.invalid", dnsmsg.TypeA)
	b, err := probe.Pack()
	if err != nil {
		return err
	}
	var dialer net.Dialer
	for {
		if probeReady(ctx, &dialer, s.udpConn.LocalAddr().String(), b) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// probeReady sends one probe query and reports whether an answer came
// back within the per-probe deadline.
func probeReady(ctx context.Context, dialer *net.Dialer, addr string, query []byte) bool {
	conn, err := dialer.DialContext(ctx, "udp", addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		return false
	}
	if _, err := conn.Write(query); err != nil {
		return false
	}
	resp := make([]byte, 512)
	_, err = conn.Read(resp)
	return err == nil
}
