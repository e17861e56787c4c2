package dnsmsg

import (
	"bytes"
	"testing"
)

// FuzzUnpack: the wire decoder must never panic, and anything it accepts
// must re-pack and re-parse to an equal question count.
func FuzzUnpack(f *testing.F) {
	m := NewQuery(1, "_mta-sts.example.com", TypeTXT)
	wire, _ := m.Pack()
	f.Add(wire)
	resp := &Message{
		Header:    Header{ID: 7, Response: true},
		Questions: []Question{{Name: "example.com", Type: TypeMX, Class: ClassIN}},
		Answers: []RR{{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 60,
			Data: MXData{Preference: 10, Host: "mail.example.com"}}},
	}
	wire2, _ := resp.Pack()
	f.Add(wire2)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12})
	for _, wire := range hostileCountMessages() {
		f.Add(wire)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unpack(b)
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some decodable messages are not re-encodable (e.g. names over
			// length limits reconstructed from pointers) — acceptable.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message does not parse: %v", err)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("section counts changed: %d/%d vs %d/%d",
				len(m.Questions), len(m.Answers), len(m2.Questions), len(m2.Answers))
		}
	})
}

// FuzzDecodeMessage: stronger than FuzzUnpack's count check — after one
// decode→encode round the encoding must be a fixed point. Pack emits a
// canonical form (deterministic compression, normalized counts), so
// decoding its own output and re-encoding must reproduce it byte for
// byte; any drift means the codec loses or invents information.
func FuzzDecodeMessage(f *testing.F) {
	q := NewQuery(0x1234, "_mta-sts.example.com", TypeTXT)
	wire, _ := q.Pack()
	f.Add(wire)
	resp := &Message{
		Header: Header{ID: 9, Response: true, Authoritative: true},
		Questions: []Question{
			{Name: "example.com", Type: TypeMX, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 300,
				Data: MXData{Preference: 10, Host: "mx1.example.com"}},
			{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 300,
				Data: MXData{Preference: 20, Host: "mx2.example.com"}},
			{Name: "_mta-sts.example.com", Type: TypeTXT, Class: ClassIN, TTL: 60,
				Data: NewTXT("v=STSv1; id=20240929;")},
		},
	}
	wire2, _ := resp.Pack()
	f.Add(wire2)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12}) // pointer into header
	for _, m := range adversaryMessages() {
		if wire, err := m.Pack(); err == nil {
			f.Add(wire)
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unpack(b)
		if err != nil {
			return
		}
		w1, err := m.Pack()
		if err != nil {
			// Same tolerance as FuzzUnpack: pointer games can decode into
			// names that exceed encoding limits.
			return
		}
		m2, err := Unpack(w1)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		w2, err := m2.Pack()
		if err != nil {
			t.Fatalf("decoded canonical message does not re-encode: %v", err)
		}
		if !bytes.Equal(w1, w2) {
			t.Fatalf("encode is not a fixed point:\n w1 = %x\n w2 = %x", w1, w2)
		}
	})
}

// adversaryMessages are response shapes the internal/faults adversary
// forges on the wire: a spoofed malformed _mta-sts TXT record, a
// stripped-record NODATA answer, and a rewritten TLSA RRset.
func adversaryMessages() []*Message {
	return []*Message{
		{
			Header: Header{ID: 0xbad, Response: true, Authoritative: true},
			Questions: []Question{
				{Name: "_mta-sts.victim.test", Type: TypeTXT, Class: ClassIN},
			},
			Answers: []RR{
				{Name: "_mta-sts.victim.test", Type: TypeTXT, Class: ClassIN, TTL: 60,
					Data: NewTXT("v=STSv1; id=evil id!;")},
			},
		},
		{
			Header: Header{ID: 0xdead, Response: true, Authoritative: true},
			Questions: []Question{
				{Name: "_mta-sts.victim.test", Type: TypeTXT, Class: ClassIN},
			},
		},
		{
			Header: Header{ID: 0xf00, Response: true, Authoritative: true},
			Questions: []Question{
				{Name: "_25._tcp.mx.victim.test", Type: TypeTLSA, Class: ClassIN},
			},
			Answers: []RR{
				{Name: "_25._tcp.mx.victim.test", Type: TypeTLSA, Class: ClassIN, TTL: 300,
					Data: TLSAData{Usage: 3, Selector: 1, MatchingType: 1,
						CertData: bytes.Repeat([]byte{0x5a}, 32)}},
			},
		},
	}
}

// TestAdversaryMessagesRoundTrip pins that every forged response shape
// the adversary emits survives the codec round trip — the matrix
// experiment depends on these exact messages reaching the sender.
func TestAdversaryMessagesRoundTrip(t *testing.T) {
	for i, m := range adversaryMessages() {
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("message %d: pack: %v", i, err)
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Fatalf("message %d: unpack: %v", i, err)
		}
		if len(got.Answers) != len(m.Answers) || len(got.Questions) != len(m.Questions) {
			t.Fatalf("message %d: section counts changed", i)
		}
		for j, rr := range got.Answers {
			if rr.Data.String() != m.Answers[j].Data.String() {
				t.Errorf("message %d answer %d: %q != %q", i, j, rr.Data.String(), m.Answers[j].Data.String())
			}
		}
	}
}
