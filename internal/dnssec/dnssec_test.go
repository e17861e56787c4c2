package dnssec

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/dane"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnsserver"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/resolver"
)

var (
	sigNow    = time.Date(2024, 9, 29, 12, 0, 0, 0, time.UTC)
	sigIncept = sigNow.Add(-time.Hour)
	sigExpire = sigNow.Add(30 * 24 * time.Hour)
)

func mustSigner(t *testing.T, zone string) *Signer {
	t.Helper()
	s, err := NewSigner(zone)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func txtRRset(owner, value string) []dnsmsg.RR {
	return []dnsmsg.RR{{
		Name: owner, Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.NewTXT(value),
	}}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	s := mustSigner(t, "example.test")
	rrset := txtRRset("_mta-sts.example.test", "v=STSv1; id=1;")
	sigRR, err := s.Sign(rrset, sigIncept, sigExpire)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	sig := sigRR.Data.(dnsmsg.RRSIGData)
	dk := s.DNSKEY().Data.(dnsmsg.DNSKEYData)
	if err := VerifyRRSIG(rrset, sig, dk, sigNow); err != nil {
		t.Fatalf("VerifyRRSIG: %v", err)
	}
	if sig.SignerName != "example.test" || sig.TypeCovered != dnsmsg.TypeTXT || sig.Labels != 3 {
		t.Errorf("sig fields = %+v", sig)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	s := mustSigner(t, "example.test")
	rrset := txtRRset("_mta-sts.example.test", "v=STSv1; id=1;")
	sigRR, err := s.Sign(rrset, sigIncept, sigExpire)
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnsmsg.RRSIGData)
	dk := s.DNSKEY().Data.(dnsmsg.DNSKEYData)

	// Modified RRset content.
	tampered := txtRRset("_mta-sts.example.test", "v=STSv1; id=2;")
	if err := VerifyRRSIG(tampered, sig, dk, sigNow); err == nil {
		t.Error("tampered RRset verified")
	}
	// Wrong key.
	other := mustSigner(t, "example.test")
	odk := other.DNSKEY().Data.(dnsmsg.DNSKEYData)
	if err := VerifyRRSIG(rrset, sig, odk, sigNow); err == nil {
		t.Error("foreign key verified")
	}
	// Outside validity window.
	if err := VerifyRRSIG(rrset, sig, dk, sigExpire.Add(time.Hour)); err == nil {
		t.Error("expired signature verified")
	}
	if err := VerifyRRSIG(rrset, sig, dk, sigIncept.Add(-time.Hour)); err == nil {
		t.Error("not-yet-valid signature verified")
	}
}

func TestVerifyIsOrderInsensitive(t *testing.T) {
	// Canonical ordering: signing [a, b] must verify [b, a].
	s := mustSigner(t, "example.test")
	rrset := []dnsmsg.RR{
		{Name: "Example.Test", Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN, TTL: 300,
			Data: dnsmsg.MXData{Preference: 10, Host: "MX1.Example.Test"}},
		{Name: "example.test", Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN, TTL: 300,
			Data: dnsmsg.MXData{Preference: 20, Host: "mx2.example.test"}},
	}
	sigRR, err := s.Sign(rrset, sigIncept, sigExpire)
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnsmsg.RRSIGData)
	dk := s.DNSKEY().Data.(dnsmsg.DNSKEYData)
	reversed := []dnsmsg.RR{rrset[1], rrset[0]}
	if err := VerifyRRSIG(reversed, sig, dk, sigNow); err != nil {
		t.Errorf("reordered RRset failed: %v", err)
	}
	// Case differences in names must not matter (canonical lowercase).
	lower := []dnsmsg.RR{
		{Name: "example.test", Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN, TTL: 300,
			Data: dnsmsg.MXData{Preference: 10, Host: "mx1.example.test"}},
		rrset[1],
	}
	if err := VerifyRRSIG(lower, sig, dk, sigNow); err != nil {
		t.Errorf("case-normalized RRset failed: %v", err)
	}
}

func TestKeyTagStableAndDSDigest(t *testing.T) {
	s := mustSigner(t, "example.test")
	dk := s.DNSKEY().Data.(dnsmsg.DNSKEYData)
	if KeyTag(dk) != KeyTag(dk) {
		t.Error("key tag unstable")
	}
	ds := s.DS().Data.(dnsmsg.DSData)
	if ds.KeyTag != KeyTag(dk) || ds.DigestType != dnsmsg.DigestSHA256 || len(ds.Digest) != 32 {
		t.Errorf("DS = %+v", ds)
	}
	// A different key yields a different tag/digest (overwhelmingly).
	other := mustSigner(t, "example.test")
	ods := other.DS().Data.(dnsmsg.DSData)
	if string(ods.Digest) == string(ds.Digest) {
		t.Error("distinct keys share a DS digest")
	}
}

func TestSignRejectsOutOfZone(t *testing.T) {
	s := mustSigner(t, "example.test")
	if _, err := s.Sign(txtRRset("elsewhere.org", "x"), sigIncept, sigExpire); err == nil {
		t.Error("signed out-of-zone RRset")
	}
	if _, err := s.Sign(nil, sigIncept, sigExpire); err == nil {
		t.Error("signed empty RRset")
	}
}

// atSigNow is a context whose clock reads sigNow, inside every
// signature's validity window.
func atSigNow() context.Context {
	return clock.With(context.Background(), clock.NewFake(sigNow))
}

// buildSignedEnv boots a DNS server with a signed parent ("test") and a
// securely delegated child ("secure.test") carrying a TLSA record; an
// unsigned sibling ("insecure.test") serves the same shape without
// signatures.
func buildSignedEnv(t *testing.T) (*Validator, *dnszone.Zone) {
	t.Helper()
	parentZone := dnszone.New("test")
	parentZone.MustAdd(dnsmsg.RR{Name: "test", Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN,
		TTL: 300, Data: dnsmsg.NewTXT("parent apex")})
	parentSigner := mustSigner(t, "test")
	if _, err := SignZone(parentZone, parentSigner, sigIncept, sigExpire); err != nil {
		t.Fatal(err)
	}

	childZone := dnszone.New("secure.test")
	ca, err := pki.NewCA("dnssec-test", sigNow)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(pki.IssueOptions{Names: []string{"mx.secure.test"}, Now: sigNow})
	if err != nil {
		t.Fatal(err)
	}
	childZone.MustAdd(dane.NewEE3(leaf.Cert).RR("mx.secure.test", 300))
	childZone.MustAdd(dnsmsg.RR{Name: "mx.secure.test", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN,
		TTL: 300, Data: dnsmsg.AData{Addr: netip.MustParseAddr("127.0.0.1")}})
	childSigner := mustSigner(t, "secure.test")
	if _, err := SignZone(childZone, childSigner, sigIncept, sigExpire); err != nil {
		t.Fatal(err)
	}
	if err := DelegateSecurely(parentSigner, childZone, childSigner, sigIncept, sigExpire); err != nil {
		t.Fatal(err)
	}

	insecureZone := dnszone.New("insecure.test")
	insecureZone.MustAdd(dnsmsg.RR{Name: "_25._tcp.mx.insecure.test", Type: dnsmsg.TypeTLSA,
		Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.TLSAData{Usage: 3, Selector: 1, MatchingType: 1, CertData: []byte{1, 2, 3}}})

	srv := dnsserver.New(nil)
	srv.AddZone(parentZone)
	srv.AddZone(childZone)
	srv.AddZone(insecureZone)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	v := NewValidator(resolver.New(addr.String()))
	if err := v.AddAnchor(parentSigner.DS()); err != nil {
		t.Fatal(err)
	}
	return v, childZone
}

func TestSecureLookupChain(t *testing.T) {
	v, _ := buildSignedEnv(t)
	ctx := atSigNow()
	rrs, secure, err := v.SecureLookup(ctx, "_25._tcp.mx.secure.test", dnsmsg.TypeTLSA)
	if err != nil {
		t.Fatalf("SecureLookup: %v", err)
	}
	if !secure {
		t.Fatal("chain did not validate")
	}
	if len(rrs) != 1 || rrs[0].Type != dnsmsg.TypeTLSA {
		t.Errorf("rrs = %v", rrs)
	}
}

func TestSecureLookupInsecureZone(t *testing.T) {
	v, _ := buildSignedEnv(t)
	rrs, secure, err := v.SecureLookup(atSigNow(), "_25._tcp.mx.insecure.test", dnsmsg.TypeTLSA)
	if err != nil {
		t.Fatalf("SecureLookup: %v", err)
	}
	if secure {
		t.Error("unsigned zone validated")
	}
	if len(rrs) != 1 {
		t.Errorf("rrs = %v", rrs)
	}
}

func TestSecureLookupDetectsForgery(t *testing.T) {
	v, childZone := buildSignedEnv(t)
	ctx := atSigNow()

	// An attacker swaps the TLSA RRset without being able to re-sign.
	childZone.Remove("_25._tcp.mx.secure.test", dnsmsg.TypeTLSA)
	childZone.MustAdd(dnsmsg.RR{Name: "_25._tcp.mx.secure.test", Type: dnsmsg.TypeTLSA,
		Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.TLSAData{Usage: 3, Selector: 1, MatchingType: 1, CertData: []byte{0xBA, 0xD0}}})
	v.Client.Cache.Flush()

	_, secure, err := v.SecureLookup(ctx, "_25._tcp.mx.secure.test", dnsmsg.TypeTLSA)
	if err != nil {
		t.Fatal(err)
	}
	if secure {
		t.Error("forged TLSA RRset validated")
	}
}

func TestSecureLookupExpiredSignatures(t *testing.T) {
	v, _ := buildSignedEnv(t)
	ctx := clock.With(context.Background(), clock.NewFake(sigExpire.Add(48*time.Hour)))
	_, secure, err := v.SecureLookup(ctx, "_25._tcp.mx.secure.test", dnsmsg.TypeTLSA)
	if err != nil {
		t.Fatal(err)
	}
	if secure {
		t.Error("expired chain validated")
	}
}

func TestValidatorWithoutAnchor(t *testing.T) {
	v, _ := buildSignedEnv(t)
	v.anchors = map[string][]dnsmsg.DSData{} // drop the trust anchor
	_, secure, err := v.SecureLookup(atSigNow(), "_25._tcp.mx.secure.test", dnsmsg.TypeTLSA)
	if err != nil {
		t.Fatal(err)
	}
	if secure {
		t.Error("chain validated without any trust anchor")
	}
}

// TestSignedZoneFileRoundTrip: a signed zone survives serialization to the
// zone-file format and back, and its signatures still verify.
func TestSignedZoneFileRoundTrip(t *testing.T) {
	z := dnszone.New("roundtrip.test")
	z.MustAdd(dnsmsg.RR{Name: "_mta-sts.roundtrip.test", Type: dnsmsg.TypeTXT,
		Class: dnsmsg.ClassIN, TTL: 300, Data: dnsmsg.NewTXT("v=STSv1; id=1;")})
	z.MustAdd(dnsmsg.RR{Name: "roundtrip.test", Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN,
		TTL: 300, Data: dnsmsg.MXData{Preference: 10, Host: "mx.roundtrip.test"}})
	s := mustSigner(t, "roundtrip.test")
	if _, err := SignZone(z, s, sigIncept, sigExpire); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	z2, err := dnszone.ParseFile(strings.NewReader(buf.String()), "")
	if err != nil {
		t.Fatalf("ParseFile: %v\n%s", err, buf.String())
	}

	// Every RRset in the reloaded zone must still verify.
	dk := s.DNSKEY().Data.(dnsmsg.DNSKEYData)
	verified := 0
	for _, name := range z2.Names() {
		byType := map[dnsmsg.Type][]dnsmsg.RR{}
		var sigs []dnsmsg.RRSIGData
		for _, rr := range z2.Records(name) {
			if sd, ok := rr.Data.(dnsmsg.RRSIGData); ok {
				sigs = append(sigs, sd)
				continue
			}
			byType[rr.Type] = append(byType[rr.Type], rr)
		}
		for typ, rrset := range byType {
			var sig *dnsmsg.RRSIGData
			for i := range sigs {
				if sigs[i].TypeCovered == typ {
					sig = &sigs[i]
				}
			}
			if sig == nil {
				t.Fatalf("%s/%s: no signature survived the round trip", name, typ)
			}
			if err := VerifyRRSIG(rrset, *sig, dk, sigNow); err != nil {
				t.Errorf("%s/%s: %v", name, typ, err)
			}
			verified++
		}
	}
	if verified < 3 { // TXT, MX, DNSKEY
		t.Errorf("only %d RRsets verified", verified)
	}
}
