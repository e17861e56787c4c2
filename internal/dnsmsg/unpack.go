package dnsmsg

import (
	"errors"
	"fmt"
	"net/netip"
)

// Errors returned while decoding.
var (
	ErrShortMessage = errors.New("dnsmsg: message truncated")
	ErrPointerLoop  = errors.New("dnsmsg: compression pointer loop")
	ErrTrailingData = errors.New("dnsmsg: trailing bytes after message")
)

// Unpack parses a wire-format DNS message. The returned Message shares no
// memory with b: every name, character-string and byte field is copied
// out, so the caller may reuse b as soon as Unpack returns (the resolver's
// pooled reply buffer relies on it; TestUnpackDoesNotAliasInput pins it).
func Unpack(b []byte) (*Message, error) {
	d := decoder{buf: b}
	m := &Message{}
	var qd, an, ns, ar int
	var err error
	if m.Header, qd, an, ns, ar, err = d.header(); err != nil {
		return nil, err
	}
	// A section is pre-sized only when its count, the peer's claim, could
	// fit in the bytes that are left: a question is at least 5 bytes (root
	// name, type, class), a record at least 11 (+ TTL, RDLENGTH).
	if qd > 0 && qd <= d.left()/5 {
		m.Questions = make([]Question, 0, qd)
	}
	for i := 0; i < qd; i++ {
		q, err := d.question()
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	sections := [...]struct {
		n   int
		dst *[]RR
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}}
	for _, sec := range sections {
		if sec.n > 0 && sec.n <= d.left()/11 {
			*sec.dst = make([]RR, 0, sec.n)
		}
		for i := 0; i < sec.n; i++ {
			rr, err := d.rr()
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return m, nil
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) left() int { return len(d.buf) - d.off }

func (d *decoder) header() (h Header, qd, an, ns, ar int, err error) {
	if len(d.buf) < 12 {
		err = ErrShortMessage
		return
	}
	h.ID = uint16(d.buf[0])<<8 | uint16(d.buf[1])
	flags := uint16(d.buf[2])<<8 | uint16(d.buf[3])
	h.Response = flags&(1<<15) != 0
	h.OpCode = OpCode(flags >> 11 & 0xF)
	h.Authoritative = flags&(1<<10) != 0
	h.Truncated = flags&(1<<9) != 0
	h.RecursionDesired = flags&(1<<8) != 0
	h.RecursionAvailable = flags&(1<<7) != 0
	h.RCode = RCode(flags & 0xF)
	qd = int(uint16(d.buf[4])<<8 | uint16(d.buf[5]))
	an = int(uint16(d.buf[6])<<8 | uint16(d.buf[7]))
	ns = int(uint16(d.buf[8])<<8 | uint16(d.buf[9]))
	ar = int(uint16(d.buf[10])<<8 | uint16(d.buf[11]))
	d.off = 12
	return
}

func (d *decoder) question() (Question, error) {
	name, err := d.name()
	if err != nil {
		return Question{}, err
	}
	t, err := d.uint16()
	if err != nil {
		return Question{}, err
	}
	c, err := d.uint16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: name, Type: Type(t), Class: Class(c)}, nil
}

func (d *decoder) rr() (RR, error) {
	name, err := d.name()
	if err != nil {
		return RR{}, err
	}
	t16, err := d.uint16()
	if err != nil {
		return RR{}, err
	}
	c16, err := d.uint16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.uint32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := d.uint16()
	if err != nil {
		return RR{}, err
	}
	if d.off+int(rdlen) > len(d.buf) {
		return RR{}, ErrShortMessage
	}
	rr := RR{Name: name, Type: Type(t16), Class: Class(c16), TTL: ttl}
	end := d.off + int(rdlen)
	rr.Data, err = d.rdata(rr.Type, end)
	if err != nil {
		return RR{}, fmt.Errorf("RDATA of %s %s: %w", name, rr.Type, err)
	}
	if d.off != end {
		return RR{}, fmt.Errorf("RDATA of %s %s: %d bytes left over", name, rr.Type, end-d.off)
	}
	return rr, nil
}

func (d *decoder) rdata(t Type, end int) (RData, error) {
	switch t {
	case TypeA:
		if end-d.off != 4 {
			return nil, fmt.Errorf("A RDATA length %d", end-d.off)
		}
		var a4 [4]byte
		copy(a4[:], d.buf[d.off:])
		d.off += 4
		return AData{Addr: netip.AddrFrom4(a4)}, nil
	case TypeAAAA:
		if end-d.off != 16 {
			return nil, fmt.Errorf("AAAA RDATA length %d", end-d.off)
		}
		var a16 [16]byte
		copy(a16[:], d.buf[d.off:])
		d.off += 16
		return AAAAData{Addr: netip.AddrFrom16(a16)}, nil
	case TypeNS:
		host, err := d.name()
		return NSData{Host: host}, err
	case TypeCNAME:
		target, err := d.name()
		return CNAMEData{Target: target}, err
	case TypeMX:
		pref, err := d.uint16()
		if err != nil {
			return nil, err
		}
		host, err := d.name()
		return MXData{Preference: pref, Host: host}, err
	case TypeTXT:
		var parts []string
		for d.off < end {
			n := int(d.buf[d.off])
			d.off++
			if d.off+n > end {
				return nil, ErrShortMessage
			}
			parts = append(parts, string(d.buf[d.off:d.off+n]))
			d.off += n
		}
		if len(parts) == 0 {
			return nil, errors.New("TXT with no character-strings")
		}
		return TXTData{Strings: parts}, nil
	case TypeSOA:
		var s SOAData
		var err error
		if s.MName, err = d.name(); err != nil {
			return nil, err
		}
		if s.RName, err = d.name(); err != nil {
			return nil, err
		}
		for _, p := range []*uint32{&s.Serial, &s.Refresh, &s.Retry, &s.Expire, &s.Minimum} {
			if *p, err = d.uint32(); err != nil {
				return nil, err
			}
		}
		return s, nil
	case TypeDNSKEY:
		if end-d.off < 4 {
			return nil, ErrShortMessage
		}
		k := DNSKEYData{
			Flags:     uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1]),
			Protocol:  d.buf[d.off+2],
			Algorithm: d.buf[d.off+3],
		}
		d.off += 4
		k.PublicKey = append([]byte(nil), d.buf[d.off:end]...)
		d.off = end
		return k, nil
	case TypeDS:
		if end-d.off < 4 {
			return nil, ErrShortMessage
		}
		ds := DSData{
			KeyTag:     uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1]),
			Algorithm:  d.buf[d.off+2],
			DigestType: d.buf[d.off+3],
		}
		d.off += 4
		ds.Digest = append([]byte(nil), d.buf[d.off:end]...)
		d.off = end
		return ds, nil
	case TypeRRSIG:
		var sig RRSIGData
		tc, err := d.uint16()
		if err != nil {
			return nil, err
		}
		sig.TypeCovered = Type(tc)
		if end-d.off < 2 {
			return nil, ErrShortMessage
		}
		sig.Algorithm = d.buf[d.off]
		sig.Labels = d.buf[d.off+1]
		d.off += 2
		if sig.OrigTTL, err = d.uint32(); err != nil {
			return nil, err
		}
		if sig.Expiration, err = d.uint32(); err != nil {
			return nil, err
		}
		if sig.Inception, err = d.uint32(); err != nil {
			return nil, err
		}
		if sig.KeyTag, err = d.uint16(); err != nil {
			return nil, err
		}
		if sig.SignerName, err = d.name(); err != nil {
			return nil, err
		}
		if d.off > end {
			return nil, ErrShortMessage
		}
		sig.Signature = append([]byte(nil), d.buf[d.off:end]...)
		d.off = end
		return sig, nil
	case TypeTLSA:
		if end-d.off < 3 {
			return nil, ErrShortMessage
		}
		td := TLSAData{
			Usage:        d.buf[d.off],
			Selector:     d.buf[d.off+1],
			MatchingType: d.buf[d.off+2],
		}
		d.off += 3
		td.CertData = append([]byte(nil), d.buf[d.off:end]...)
		d.off = end
		return td, nil
	default:
		raw := RawData{RType: t, Bytes: append([]byte(nil), d.buf[d.off:end]...)}
		d.off = end
		return raw, nil
	}
}

// name decodes a possibly-compressed domain name at the current offset.
// Labels gather in a stack scratch (253 bytes of name, plus the dot written
// ahead of the length check) and leave as one string allocation.
func (d *decoder) name() (string, error) {
	var scratch [254]byte
	name := scratch[:0]
	off := d.off
	jumped := false
	// Each pointer must strictly decrease the offset it targets relative to
	// its own position per common validation practice; we bound total jumps
	// instead, which is simpler and equally safe.
	for jumps := 0; ; {
		if off >= len(d.buf) {
			return "", ErrShortMessage
		}
		c := int(d.buf[off])
		switch {
		case c == 0:
			if !jumped {
				d.off = off + 1
			}
			return string(name), nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(d.buf) {
				return "", ErrShortMessage
			}
			ptr := (c&0x3F)<<8 | int(d.buf[off+1])
			if !jumped {
				d.off = off + 2
			}
			jumped = true
			jumps++
			if jumps > 63 {
				return "", ErrPointerLoop
			}
			off = ptr
		case c&0xC0 != 0:
			return "", fmt.Errorf("dnsmsg: reserved label type %#x", c&0xC0)
		default:
			if off+1+c > len(d.buf) {
				return "", ErrShortMessage
			}
			if len(name) > 0 {
				name = append(name, '.')
			}
			if len(name)+c > 253 {
				return "", ErrNameTooLong
			}
			name = append(name, d.buf[off+1:off+1+c]...)
			off += 1 + c
		}
	}
}

func (d *decoder) uint16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1])
	d.off += 2
	return v, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := uint32(d.buf[d.off])<<24 | uint32(d.buf[d.off+1])<<16 | uint32(d.buf[d.off+2])<<8 | uint32(d.buf[d.off+3])
	d.off += 4
	return v, nil
}
