package dnssec

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/strutil"
)

// SignZone signs every RRset in the zone in place: it adds the zone's
// DNSKEY record, then an RRSIG per (owner, type) RRset, all valid for the
// given window. Existing RRSIGs are replaced. It returns the DS record the
// parent zone should publish.
func SignZone(z *dnszone.Zone, s *Signer, incept, expire time.Time) (dnsmsg.RR, error) {
	// Drop stale signatures, then install the DNSKEY before signing so the
	// DNSKEY RRset signs itself.
	for _, name := range z.Names() {
		z.Remove(name, dnsmsg.TypeRRSIG)
	}
	z.Remove(s.Zone, dnsmsg.TypeDNSKEY)
	if err := z.Add(s.DNSKEY()); err != nil {
		return dnsmsg.RR{}, err
	}

	for _, name := range z.Names() {
		byType := map[dnsmsg.Type][]dnsmsg.RR{}
		for _, rr := range z.Records(name) {
			if rr.Type == dnsmsg.TypeRRSIG {
				continue
			}
			byType[rr.Type] = append(byType[rr.Type], rr)
		}
		for _, rrset := range byType {
			sig, err := s.Sign(rrset, incept, expire)
			if err != nil {
				return dnsmsg.RR{}, fmt.Errorf("signing %s/%s: %w", name, rrset[0].Type, err)
			}
			if err := z.Add(sig); err != nil {
				return dnsmsg.RR{}, err
			}
		}
	}
	return s.DS(), nil
}

// Validator performs chain validation against configured trust anchors.
type Validator struct {
	// anchors maps a zone origin to its trusted DS records.
	anchors map[string][]dnsmsg.DSData
	// Client resolves the records and signatures.
	Client *resolver.Client
	// MaxChain bounds delegation depth.
	MaxChain int
}

// NewValidator builds a validator over a resolver client.
func NewValidator(client *resolver.Client) *Validator {
	return &Validator{
		anchors:  make(map[string][]dnsmsg.DSData),
		Client:   client,
		MaxChain: 8,
	}
}

// AddAnchor trusts the DS record as a trust anchor for its owner zone.
func (v *Validator) AddAnchor(ds dnsmsg.RR) error {
	d, ok := ds.Data.(dnsmsg.DSData)
	if !ok {
		return fmt.Errorf("dnssec: anchor %s is %s, not DS", ds.Name, ds.Type)
	}
	zone := strutil.CanonicalName(ds.Name)
	v.anchors[zone] = append(v.anchors[zone], d)
	return nil
}

// SecureLookup resolves (name, type) and validates the RRset's chain of
// trust, judging signature windows at the context clock's instant.
// secure is true only when the full chain to a trust anchor verifies;
// rrs are returned regardless (mirroring a security-aware resolver that
// sets or clears the AD bit).
func (v *Validator) SecureLookup(ctx context.Context, name string, t dnsmsg.Type) (rrs []dnsmsg.RR, secure bool, err error) {
	rrs, err = v.Client.Lookup(ctx, name, t)
	if err != nil {
		return nil, false, err
	}
	if err := v.validateRRset(ctx, name, t, rrs, 0); err != nil {
		return rrs, false, nil
	}
	return rrs, true, nil
}

// validateRRset checks the RRSIG over (name, t, rrs) and then the signer
// zone's DNSKEY chain.
func (v *Validator) validateRRset(ctx context.Context, name string, t dnsmsg.Type, rrs []dnsmsg.RR, depth int) error {
	if depth > v.MaxChain {
		return ErrNoChain
	}
	sig, err := v.coveringSig(ctx, name, t)
	if err != nil {
		return err
	}
	key, err := v.trustedDNSKEY(ctx, sig.SignerName, sig.KeyTag, depth)
	if err != nil {
		return err
	}
	return VerifyRRSIG(rrs, sig, key, clock.From(ctx).Now())
}

// coveringSig fetches the RRSIG at name covering type t.
func (v *Validator) coveringSig(ctx context.Context, name string, t dnsmsg.Type) (dnsmsg.RRSIGData, error) {
	sigs, err := v.Client.Lookup(ctx, name, dnsmsg.TypeRRSIG)
	if err != nil {
		return dnsmsg.RRSIGData{}, fmt.Errorf("%w: %v", ErrNoSignature, err)
	}
	for _, rr := range sigs {
		if sd, ok := rr.Data.(dnsmsg.RRSIGData); ok && sd.TypeCovered == t {
			return sd, nil
		}
	}
	return dnsmsg.RRSIGData{}, fmt.Errorf("%w: %s %s", ErrNoSignature, name, t)
}

// trustedDNSKEY returns the signer zone's DNSKEY with the given tag, after
// establishing trust in the zone's DNSKEY RRset: either a configured
// anchor DS matches, or the parent zone serves a validated DS RRset.
func (v *Validator) trustedDNSKEY(ctx context.Context, zone string, tag uint16, depth int) (dnsmsg.DNSKEYData, error) {
	zone = strutil.CanonicalName(zone)
	keys, err := v.Client.Lookup(ctx, zone, dnsmsg.TypeDNSKEY)
	if err != nil {
		return dnsmsg.DNSKEYData{}, fmt.Errorf("%w: DNSKEY %s: %v", ErrNoChain, zone, err)
	}

	// The DNSKEY RRset must be self-signed by a key matching a trusted DS.
	dsList := v.anchors[zone]
	if len(dsList) == 0 {
		// Fetch DS from the parent side and validate it recursively.
		dsRRs, err := v.Client.Lookup(ctx, zone, dnsmsg.TypeDS)
		if err != nil {
			return dnsmsg.DNSKEYData{}, fmt.Errorf("%w: DS %s: %v", ErrNoChain, zone, err)
		}
		if err := v.validateRRset(ctx, zone, dnsmsg.TypeDS, dsRRs, depth+1); err != nil {
			return dnsmsg.DNSKEYData{}, fmt.Errorf("%w: DS chain for %s: %v", ErrNoChain, zone, err)
		}
		for _, rr := range dsRRs {
			if d, ok := rr.Data.(dnsmsg.DSData); ok {
				dsList = append(dsList, d)
			}
		}
	}

	// Find the DNSKEY matching a trusted DS.
	var sepKey *dnsmsg.DNSKEYData
	for i := range keys {
		dk, ok := keys[i].Data.(dnsmsg.DNSKEYData)
		if !ok {
			continue
		}
		for _, ds := range dsList {
			if ds.KeyTag == KeyTag(dk) && ds.DigestType == dnsmsg.DigestSHA256 &&
				bytes.Equal(ds.Digest, dsDigest(zone, dk)) {
				sepKey = &dk
				break
			}
		}
		if sepKey != nil {
			break
		}
	}
	if sepKey == nil {
		return dnsmsg.DNSKEYData{}, fmt.Errorf("%w: no DNSKEY of %s matches trusted DS", ErrNoChain, zone)
	}

	// Validate the DNSKEY RRset's self-signature with the SEP key.
	keySig, err := v.coveringSig(ctx, zone, dnsmsg.TypeDNSKEY)
	if err != nil {
		return dnsmsg.DNSKEYData{}, err
	}
	if err := VerifyRRSIG(keys, keySig, *sepKey, clock.From(ctx).Now()); err != nil {
		return dnsmsg.DNSKEYData{}, fmt.Errorf("DNSKEY RRset of %s: %w", zone, err)
	}

	// Return the key with the requested tag (single-key zones: the SEP key).
	for i := range keys {
		if dk, ok := keys[i].Data.(dnsmsg.DNSKEYData); ok && KeyTag(dk) == tag {
			return dk, nil
		}
	}
	return dnsmsg.DNSKEYData{}, fmt.Errorf("%w: tag %d in %s", ErrNoDNSKEY, tag, zone)
}

// DelegateSecurely establishes the parent→child link: it computes the
// child's DS record, signs it with the parent's key, and installs both
// into the child zone. Call it after SignZone(child) — SignZone strips all
// RRSIGs before re-signing.
//
// Placement note: in real DNS the DS RRset lives on the parent side of the
// zone cut. The substrate's authoritative server routes queries by longest
// matching origin, so the DS (and its parent-signed RRSIG) are stored in
// the child zone instead; the cryptographic chain — DS signed by the
// parent key, digesting the child DNSKEY — is identical either way.
func DelegateSecurely(parent *Signer, child *dnszone.Zone, childSigner *Signer, incept, expire time.Time) error {
	ds := childSigner.DS()
	child.Remove(ds.Name, dnsmsg.TypeDS)
	if err := child.Add(ds); err != nil {
		return err
	}
	sig, err := parent.Sign([]dnsmsg.RR{ds}, incept, expire)
	if err != nil {
		return fmt.Errorf("dnssec: parent-signing DS of %s: %w", childSigner.Zone, err)
	}
	return child.Add(sig)
}
