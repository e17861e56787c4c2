package bench

import (
	"bufio"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// Loopback addresses of the substrate. Every 127.0.0.0/8 address is
// bindable on Linux without configuration, so behaviours are told apart
// by address while LiveSpec keeps its single HTTPS and SMTP port.
const (
	dnsListen    = "127.0.0.1:0"
	policyAddr   = "127.0.0.2"
	closedAddr   = "127.0.0.3" // nothing listens here: the closed-port defect
	smtpAddrBase = "127.0.1."  // + (1 + mxKind)
)

func smtpAddr(kind mxKind) string { return smtpAddrBase + strconv.Itoa(1+int(kind)) }

// Endpoints is what the substrate child hands back to the driver: where
// its servers listen and the CA that signed their certificates.
type Endpoints struct {
	DNS       string `json:"dns"`
	HTTPSPort int    `json:"https_port"`
	SMTPPort  int    `json:"smtp_port"`
	CAPEM     string `json:"ca_pem"`
	PID       int    `json:"pid"`
}

// Counters are the substrate's exact work counts: DNS queries answered
// and SMTP connections accepted, summed over every server.
type Counters struct {
	Queries int `json:"queries"`
	Conns   int `json:"conns"`
}

// servers is the loopback Internet of one live world: one authoritative
// DNS server, one SNI-keyed HTTPS policy host, one smtpd per MX
// behaviour.
type servers struct {
	dns  *dnsserver.Server
	pol  *policysrv.Server
	smtp []*smtpd.Server
	ep   Endpoints
}

// rr builds a 300-second IN record.
func rr(name string, t dnsmsg.Type, data dnsmsg.RData) dnsmsg.RR {
	return dnsmsg.RR{Name: name, Type: t, Class: dnsmsg.ClassIN, TTL: 300, Data: data}
}

// zoneSet collects records into zones keyed by origin.
type zoneSet map[string]*dnszone.Zone

func (zs zoneSet) add(origin string, r dnsmsg.RR) error {
	z := zs[origin]
	if z == nil {
		z = dnszone.New(origin)
		zs[origin] = z
	}
	return z.Add(r)
}

// buildZones renders the world's DNS: per-shard domain zones, the MX
// name zones, and one zone per policy-hosting provider base.
func buildZones(w *World) (zoneSet, error) {
	zs := make(zoneSet)
	a := func(ip string) dnsmsg.AData { return dnsmsg.AData{Addr: netip.MustParseAddr(ip)} }
	seen := make(map[string]bool) // MX and provider names that already have their A record
	for _, d := range w.specs {
		_, shard, _ := strings.Cut(d.Name, ".")
		for j, m := range d.MX {
			if err := zs.add(shard, rr(d.Name, dnsmsg.TypeMX, dnsmsg.MXData{Preference: uint16(10 * (j + 1)), Host: m.Name})); err != nil {
				return nil, err
			}
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			origin := mxZone
			if strings.HasSuffix(m.Name, "."+poolZone) {
				origin = poolZone
			}
			if err := zs.add(origin, rr(m.Name, dnsmsg.TypeA, a(smtpAddr(m.Kind)))); err != nil {
				return nil, err
			}
		}
		if !d.Adopter {
			continue
		}
		for _, txt := range d.TXT {
			if err := zs.add(shard, rr("_mta-sts."+d.Name, dnsmsg.TypeTXT, dnsmsg.NewTXT(txt))); err != nil {
				return nil, err
			}
		}
		addr := policyAddr
		switch d.Defect {
		case defPolicyHostNXDomain:
			continue
		case defPolicyClosedPort:
			addr = closedAddr
		}
		host := mtasts.PolicyHost(d.Name)
		if d.CNAME == "" {
			if err := zs.add(shard, rr(host, dnsmsg.TypeA, a(addr))); err != nil {
				return nil, err
			}
			continue
		}
		if err := zs.add(shard, rr(host, dnsmsg.TypeCNAME, dnsmsg.CNAMEData{Target: d.CNAME})); err != nil {
			return nil, err
		}
		base := d.CNAME
		if p, ok := policysrv.ProviderFor(d.CNAME); ok {
			base = p.Base
		}
		// A shared-name provider (Tutanota) has one canonical name for
		// every customer; genHosted keeps address-level defects off it.
		if !seen[d.CNAME] {
			seen[d.CNAME] = true
			if err := zs.add(base, rr(d.CNAME, dnsmsg.TypeA, a(addr))); err != nil {
				return nil, err
			}
		}
	}
	return zs, nil
}

// tenantFor maps a domain's defect onto the policy host's behaviour.
func tenantFor(d *domainSpec) *policysrv.Tenant {
	t := &policysrv.Tenant{Domain: d.Name, Policy: d.Policy}
	switch d.Defect {
	case defPolicyCertWrongName:
		t.CertMode = policysrv.CertWrongName
	case defPolicyCertSelfSigned:
		t.CertMode = policysrv.CertSelfSigned
	case defPolicyCertExpired:
		t.CertMode = policysrv.CertExpired
	case defPolicyCertMissing:
		t.CertMode = policysrv.CertMissing
	case defHTTP404:
		t.HTTPMode = policysrv.HTTPNotFound
	case defHTTP500:
		t.HTTPMode = policysrv.HTTPServerError
	case defHTTP301:
		t.HTTPMode = policysrv.HTTPRedirect
	case defBodyEmpty:
		t.HTTPMode = policysrv.HTTPEmptyBody
	case defBodyGarbage:
		t.HTTPMode = policysrv.HTTPGarbage
	}
	return t
}

// smtpBehavior is the smtpd configuration behind one MX kind.
func smtpBehavior(ca *pki.CA, kind mxKind, now time.Time) (smtpd.Behavior, error) {
	b := smtpd.Behavior{Hostname: "mx-" + strconv.Itoa(int(kind)) + "." + mxZone}
	if kind == mxNoSTARTTLS {
		b.DisableSTARTTLS = true
		return b, nil
	}
	opts := pki.IssueOptions{Names: []string{"*." + mxZone, "*." + poolZone}, Now: now}
	switch kind {
	case mxExpired:
		opts.NotBefore, opts.NotAfter = now.Add(-100*24*time.Hour), now.Add(-10*24*time.Hour)
	case mxSelfSigned:
		opts.SelfSigned = true
	case mxMismatch:
		opts.Names = []string{"*." + otherMXZone}
	}
	leaf, err := ca.Issue(opts)
	if err != nil {
		return b, err
	}
	cert := leaf.TLSCertificate()
	b.Certificate = &cert
	return b, nil
}

// startSMTP binds one smtpd per MX kind, each on its own address and
// all on one port: the kernel picks the port for the first, the rest
// must get the same one, so a collision re-rolls the whole set.
func startSMTP(ca *pki.CA, now time.Time) ([]*smtpd.Server, int, error) {
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		var set []*smtpd.Server
		port := 0
		for kind := mxKind(0); kind < numMXKinds; kind++ {
			b, err := smtpBehavior(ca, kind, now)
			if err != nil {
				return nil, 0, err
			}
			s := smtpd.New(b)
			addr, err := s.Start(net.JoinHostPort(smtpAddr(kind), strconv.Itoa(port)))
			if err != nil {
				lastErr = err
				break
			}
			set = append(set, s)
			port = addr.(*net.TCPAddr).Port
		}
		if len(set) == int(numMXKinds) {
			return set, port, nil
		}
		for _, s := range set {
			lastErr = errors.Join(lastErr, s.Close())
		}
	}
	return nil, 0, fmt.Errorf("bench: no common SMTP port after 8 tries: %w", lastErr)
}

// startServers materializes a live world on loopback.
func startServers(w *World) (*servers, error) {
	if !w.Live() {
		return nil, fmt.Errorf("bench: workload %s has no loopback substrate", w.Workload)
	}
	ca, err := pki.NewCA("mtasts-bench CA", w.Now)
	if err != nil {
		return nil, err
	}
	s := &servers{}
	fail := func(err error) (*servers, error) { return nil, errors.Join(err, s.close()) }

	zs, err := buildZones(w)
	if err != nil {
		return fail(err)
	}
	s.dns = dnsserver.New(nil)
	for _, z := range zs {
		s.dns.AddZone(z)
	}
	dnsAddr, err := s.dns.Start(dnsListen)
	if err != nil {
		return fail(err)
	}

	s.pol = policysrv.New(ca, nil)
	for _, d := range w.specs {
		if d.Adopter {
			s.pol.AddTenant(tenantFor(d))
		}
	}
	if _, err := s.pol.Start(policyAddr + ":0"); err != nil {
		return fail(err)
	}

	var smtpPort int
	if s.smtp, smtpPort, err = startSMTP(ca, w.Now); err != nil {
		return fail(err)
	}
	s.ep = Endpoints{
		DNS:       dnsAddr.String(),
		HTTPSPort: s.pol.Port(),
		SMTPPort:  smtpPort,
		CAPEM:     string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Cert.Raw})),
		PID:       os.Getpid(),
	}
	return s, nil
}

func (s *servers) counters() Counters {
	c := Counters{Queries: s.dns.QueryCount()}
	for _, m := range s.smtp {
		c.Conns += m.ConnCount()
	}
	return c
}

func (s *servers) close() error {
	var errs []error
	if s.dns != nil {
		errs = append(errs, s.dns.Close())
	}
	if s.pol != nil {
		errs = append(errs, s.pol.Close())
	}
	for _, m := range s.smtp {
		errs = append(errs, m.Close())
	}
	return errors.Join(errs...)
}

// ServeSubstrate is the child process: it regenerates the world from the
// same (workload, seed, scale), serves it on loopback, writes its
// Endpoints as one JSON line, then answers each line read from in with
// one line of Counters until in reaches EOF — the parent closing the
// pipe, or dying, is what stops it.
func ServeSubstrate(workload string, seed int64, scale float64, in io.Reader, out io.Writer) error {
	w, err := Generate(workload, seed, scale)
	if err != nil {
		return err
	}
	s, err := startServers(w)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	err = enc.Encode(s.ep)
	sc := bufio.NewScanner(in)
	for err == nil && sc.Scan() {
		err = enc.Encode(s.counters())
	}
	return errors.Join(err, sc.Err(), s.close())
}

// Substrate is the driver's handle on the child process serving the
// loopback Internet. Running it out of process keeps the driver's
// MemStats and getrusage deltas to the scanner side only.
type Substrate struct {
	Endpoints
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// StartSubstrate launches argv (this same program in its substrate
// role) and waits for its Endpoints line.
func StartSubstrate(argv []string, env []string) (*Substrate, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting substrate: %w", err)
	}
	s := &Substrate{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if err := s.readLine(&s.Endpoints); err != nil {
		return nil, errors.Join(fmt.Errorf("bench: substrate did not come up: %w", err), s.Close())
	}
	return s, nil
}

func (s *Substrate) readLine(v any) error {
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// Counters asks the child for its current work counts.
func (s *Substrate) Counters() (Counters, error) {
	var c Counters
	if _, err := io.WriteString(s.stdin, "counters\n"); err != nil {
		return c, err
	}
	return c, s.readLine(&c)
}

// Close stops the child by closing its stdin and reaps it.
func (s *Substrate) Close() error {
	err := s.stdin.Close()
	return errors.Join(err, s.cmd.Wait())
}
