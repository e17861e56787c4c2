// Package loopnet is the loopback Internet every test, experiment,
// example and in-module benchmark points the scanner and the sender at:
// one authoritative DNS server, one SNI-keyed HTTPS policy host, one CA
// and any number of MX hosts, started with one call and closed with one.
//
// The scanner carries a single HTTPS and a single SMTP port
// (scanner.Live, scansvc.LiveSpec), so behaviours are told apart by
// address, not by port: every 127.0.0.0/8 address is bindable on Linux
// without configuration, and AddMX gives each MX host its own smtpd on
// its own address while all of them listen on the world's one SMTP
// port. One Live therefore reaches any number of MX behaviours, and
// several domains — sharing an MX host or not — fit in one world.
//
// Names live in one zone per top-level label ("mx.a.test" and "b.test"
// both in zone "test"), created when a name under it is first
// published. What AddMX and AddDomain do not cover — TLSA records,
// DNSSEC signing, tenant edits, server-wide failure modes, closing the
// policy host alone — goes through Zone and the exported servers.
//
// The package sits below scanner and mta, whose tests import it, so
// callers build their own scanner.Live or mta.Outbound from its fields.
package loopnet
