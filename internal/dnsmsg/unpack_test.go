package dnsmsg

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// everyKindMessage carries one record of every RDATA kind Unpack
// decodes, Raw included, with a multi-string TXT.
func everyKindMessage() *Message {
	in := func(name string, t Type, d RData) RR {
		return RR{Name: name, Type: t, Class: ClassIN, TTL: 300, Data: d}
	}
	return &Message{
		Header:    Header{ID: 0xA11, Response: true, Authoritative: true},
		Questions: []Question{{Name: "example.com", Type: TypeANY, Class: ClassIN}},
		Answers: []RR{
			in("example.com", TypeA, AData{Addr: netip.MustParseAddr("192.0.2.1")}),
			in("example.com", TypeAAAA, AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}),
			in("example.com", TypeNS, NSData{Host: "ns1.example.com"}),
			in("mta-sts.example.com", TypeCNAME, CNAMEData{Target: "mta-sts.provider.test"}),
			in("example.com", TypeMX, MXData{Preference: 10, Host: "mail.example.com"}),
			in("_mta-sts.example.com", TypeTXT, NewTXT("v=STSv1; id="+strings.Repeat("7", 300)+";")),
			in("example.com", TypeDNSKEY, DNSKEYData{Flags: 257, Protocol: 3,
				Algorithm: AlgorithmECDSAP256SHA256, PublicKey: bytes.Repeat([]byte{0x11}, 64)}),
			in("example.com", TypeDS, DSData{KeyTag: 12345, Algorithm: 13, DigestType: DigestSHA256,
				Digest: bytes.Repeat([]byte{0x22}, 32)}),
			in("example.com", TypeRRSIG, RRSIGData{TypeCovered: TypeMX, Algorithm: 13, Labels: 2,
				OrigTTL: 300, Expiration: 1900000000, Inception: 1700000000, KeyTag: 12345,
				SignerName: "example.com", Signature: bytes.Repeat([]byte{0x33}, 64)}),
			in("_25._tcp.mail.example.com", TypeTLSA, TLSAData{Usage: 3, Selector: 1, MatchingType: 1,
				CertData: bytes.Repeat([]byte{0x44}, 32)}),
		},
		Authority: []RR{
			in("example.com", TypeSOA, SOAData{MName: "ns1.example.com", RName: "hostmaster.example.com",
				Serial: 2024093001, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}),
		},
		Additional: []RR{
			in("example.com", Type(65280), RawData{RType: Type(65280), Bytes: []byte("opaque private-use rdata")}),
		},
	}
}

// TestUnpackDoesNotAliasInput pins the contract internal/resolver's
// pooled reply buffer rests on: once Unpack has returned, nothing in the
// Message points into the input, so the next reply may overwrite it.
func TestUnpackDoesNotAliasInput(t *testing.T) {
	want := everyKindMessage()
	wire := mustPack(t, want)
	if n := len(want.Answers[5].Data.(TXTData).Strings); n < 2 {
		t.Fatalf("TXT has %d character-strings, want a multi-string record", n)
	}
	pristine, err := Unpack(bytes.Clone(wire))
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(pristine, want) {
		t.Fatalf("round-trip mismatch:\n got: %+v\nwant: %+v", pristine, want)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	if !reflect.DeepEqual(got, pristine) {
		t.Errorf("overwriting the input changed the unpacked message:\n got: %+v\nwant: %+v", got, pristine)
	}
}

// hostileCountMessages are headers whose section counts claim far more
// than the bytes behind them could hold: bare, and over a short body
// that does open with one well-formed question.
func hostileCountMessages() [][]byte {
	header := []byte{0xBA, 0xD0, 0x80, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	question := []byte{1, 'a', 4, 't', 'e', 's', 't', 0, 0, byte(TypeTXT), 0, byte(ClassIN)}
	return [][]byte{header, append(bytes.Clone(header), question...)}
}

// TestUnpackHostileCountsDoNotPreallocate: a header count is the peer's
// claim, not a length — 4 × 65 535 records announced in a few bytes must
// end in an error without Unpack having sized anything from the claim.
func TestUnpackHostileCountsDoNotPreallocate(t *testing.T) {
	wires := hostileCountMessages()
	for _, wire := range wires {
		if m, err := Unpack(wire); err == nil {
			t.Errorf("Unpack(% x) = %+v, want an error", wire, m)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, wire := range wires {
				Unpack(wire) // the error is asserted above; this loop measures allocation
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1024 {
		t.Errorf("unpacking the %d hostile headers allocated %d B/op, want < 1 KiB", len(wires), got)
	}
}
