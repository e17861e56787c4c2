package loopnet

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/smtpd"
	"github.com/netsecurelab/mtasts/internal/strutil"
)

// Loopback addresses. DNS and the policy host take kernel-chosen ports
// on serviceAddr. A listener on smtpAnchor holds the world's SMTP port
// for as long as the world lives: the kernel never gives one port on one
// address to two listeners, so concurrent worlds (and bench/'s
// substrate, which draws its port on the same address) get distinct
// SMTP ports, and MX hosts bind that port on the addresses after it.
const (
	serviceAddr = "127.0.0.1"
	closedAddr  = "127.0.0.3" // nothing in this module listens here: the closed-port defect
	smtpAnchor  = "127.0.1.1"
)

// PolicyHost says where a domain's mta-sts name points.
type PolicyHost int

// Policy host publications.
const (
	Served       PolicyHost = iota // at the world's policy server
	ClosedPort                     // at an address where the HTTPS port is closed
	Unresolvable                   // nowhere: no address record
)

// Domain is one recipient domain as AddDomain publishes it.
type Domain struct {
	Name string
	// MX lists the domain's MX hosts in preference order (10, 20, …); a
	// host AddMX was never given is published too and does not resolve.
	MX []string
	// TXT holds the _mta-sts RRset, one record per string.
	TXT []string
	// Tenant is what the policy server answers for the domain (its Domain
	// field is filled in). Nil publishes no policy host at all.
	Tenant *policysrv.Tenant
	// Host is where the policy host name points.
	Host PolicyHost
	// CNAME, when set, makes the policy host name an alias of this
	// provider-side name, which carries the address record instead.
	CNAME string
}

// Net is one loopback Internet. Configure it from one goroutine at a
// time; the servers, MX and DialAddr may be used from many in between.
type Net struct {
	// DNS is the authoritative server; resolvers point at DNS.Addr().
	DNS *dnsserver.Server
	// Policy is the SNI-keyed HTTPS policy host, on port Policy.Port().
	// Tenants can be edited, and the host closed on its own.
	Policy *policysrv.Server
	// CA signs every certificate in the world; CA.Pool() is the trust
	// store to hand a scanner or sender.
	CA *pki.CA
	// SMTPPort is the one port every MX host listens on.
	SMTPPort int

	anchor    net.Listener
	zones     map[string]*dnszone.Zone // by origin
	mx        map[string]*smtpd.Server // by canonical MX name
	servers   []*smtpd.Server          // each listener once
	lastAddr  netip.Addr               // most recently assigned MX address
	faults    *faults.Injector
	adversary *faults.Adversary
}

// Start brings up the DNS server, the policy host and the CA, and
// reserves the SMTP port. ctx bounds the bring-up only; Close stops the
// world.
func Start(ctx context.Context) (*Net, error) {
	ca, err := pki.NewCA("loopnet CA", time.Now())
	if err != nil {
		return nil, err
	}
	n := &Net{
		DNS:      dnsserver.New(nil),
		Policy:   policysrv.New(ca, nil),
		CA:       ca,
		zones:    make(map[string]*dnszone.Zone),
		mx:       make(map[string]*smtpd.Server),
		lastAddr: netip.MustParseAddr(smtpAnchor),
	}
	fail := func(err error) (*Net, error) { return nil, errors.Join(fmt.Errorf("loopnet: %w", err), n.Close()) }
	if _, err := n.DNS.Start(serviceAddr + ":0"); err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := n.DNS.WaitReady(ctx); err != nil {
		return fail(err)
	}
	if _, err := n.Policy.Start(serviceAddr + ":0"); err != nil {
		return fail(err)
	}
	if n.anchor, err = net.Listen("tcp", smtpAnchor+":0"); err != nil {
		return fail(err)
	}
	n.SMTPPort = n.anchor.Addr().(*net.TCPAddr).Port
	return n, nil
}

// Close stops every server, including MX hosts added since Start.
func (n *Net) Close() error {
	errs := []error{n.DNS.Close(), n.Policy.Close()}
	if n.anchor != nil {
		errs = append(errs, n.anchor.Close())
	}
	for _, s := range n.servers {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// Cert issues a leaf from the world's CA in the form smtpd.Behavior and
// faults.Scenario take, Leaf set for TLSA records. It panics on options
// no certificate can be made from: a bug in the caller.
func (n *Net) Cert(opts pki.IssueOptions) *tls.Certificate {
	leaf, err := n.CA.Issue(opts)
	if err != nil {
		panic(err)
	}
	cert := leaf.TLSCertificate()
	return &cert
}

// Zone returns the zone that holds name — the one named after its last
// label — creating and serving it on first use: the way to TLSA records,
// DNSSEC signing, and authority over a label nothing is published under.
func (n *Net) Zone(name string) *dnszone.Zone {
	name = strutil.CanonicalName(name)
	origin := name[strings.LastIndexByte(name, '.')+1:]
	z := n.zones[origin]
	if z == nil {
		z = dnszone.New(origin)
		n.zones[origin] = z
		n.DNS.AddZone(z)
	}
	return z
}

// publish adds one record. Like dnszone.MustAdd it panics when the
// record contradicts what the zone holds (a CNAME beside other data):
// the world was described inconsistently, a bug in the caller.
func (n *Net) publish(name string, t dnsmsg.Type, data dnsmsg.RData) {
	n.Zone(name).MustAdd(dnsmsg.RR{Name: name, Type: t, Class: dnsmsg.ClassIN, TTL: 300, Data: data})
}

// AddMX starts an SMTP server on an address of its own, on the world's
// SMTP port, and points every name at it; names given together share
// the one listener. b.Hostname defaults to the first name, and with
// STARTTLS on b.Certificate defaults to a valid one for the names.
// Faults and an adversary installed earlier govern the new server too.
func (n *Net) AddMX(b smtpd.Behavior, names ...string) (*smtpd.Server, error) {
	if len(names) == 0 {
		return nil, errors.New("loopnet: AddMX without a name")
	}
	if b.Hostname == "" {
		b.Hostname = names[0]
	}
	if b.Certificate == nil && !b.DisableSTARTTLS {
		b.Certificate = n.Cert(pki.IssueOptions{Names: names})
	}
	srv := smtpd.New(b)
	srv.SetFaults(n.faults)
	srv.SetAdversary(n.adversary)
	// The port is fixed, so what is re-rolled when a foreign listener
	// already holds it on the next address is the address.
	var err error
	for try := 0; try < 8; try++ {
		n.lastAddr = n.lastAddr.Next()
		if _, err = srv.Start(net.JoinHostPort(n.lastAddr.String(), strconv.Itoa(n.SMTPPort))); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("loopnet: MX %s: %w", names[0], err)
	}
	n.servers = append(n.servers, srv)
	for _, name := range names {
		n.mx[strutil.CanonicalName(name)] = srv
		n.publish(name, dnsmsg.TypeA, dnsmsg.AData{Addr: n.lastAddr})
	}
	return srv, nil
}

// MX returns the server behind an MX name, nil when AddMX never saw it.
func (n *Net) MX(name string) *smtpd.Server { return n.mx[strutil.CanonicalName(name)] }

// DialAddr maps an MX name to its server's host:port ("" when unknown);
// it has the shape of mta.Outbound.AddrOverride.
func (n *Net) DialAddr(name string) string {
	if srv := n.MX(name); srv != nil {
		return srv.Addr().String()
	}
	return ""
}

// AddDomain publishes the domain's MX records, its _mta-sts TXT RRset
// and, when d.Tenant is set, its policy host, and registers the tenant.
func (n *Net) AddDomain(d Domain) {
	for i, mx := range d.MX {
		n.publish(d.Name, dnsmsg.TypeMX, dnsmsg.MXData{Preference: uint16(10 * (i + 1)), Host: mx})
	}
	for _, txt := range d.TXT {
		n.publish("_mta-sts."+d.Name, dnsmsg.TypeTXT, dnsmsg.NewTXT(txt))
	}
	if d.Tenant == nil {
		return
	}
	d.Tenant.Domain = d.Name
	n.Policy.AddTenant(d.Tenant)
	host := mtasts.PolicyHost(d.Name)
	if d.CNAME != "" {
		n.publish(host, dnsmsg.TypeCNAME, dnsmsg.CNAMEData{Target: d.CNAME})
		host = d.CNAME
	}
	switch d.Host {
	case Served:
		n.publish(host, dnsmsg.TypeA, dnsmsg.AData{Addr: netip.MustParseAddr(serviceAddr)})
	case ClosedPort:
		n.publish(host, dnsmsg.TypeA, dnsmsg.AData{Addr: netip.MustParseAddr(closedAddr)})
	}
}

// SetFaults installs one injector (nil removes it) on the DNS server,
// the policy host and every MX host, present and future.
func (n *Net) SetFaults(inj *faults.Injector) {
	n.faults = inj
	n.DNS.SetFaults(inj)
	n.Policy.SetFaults(inj)
	for _, s := range n.servers {
		s.SetFaults(inj)
	}
}

// SetAdversary mounts one on-path attacker (nil removes it) on the DNS
// server, the policy host and every MX host, present and future.
func (n *Net) SetAdversary(adv *faults.Adversary) {
	n.adversary = adv
	n.DNS.SetAdversary(adv)
	n.Policy.SetAdversary(adv)
	for _, s := range n.servers {
		s.SetAdversary(adv)
	}
}
