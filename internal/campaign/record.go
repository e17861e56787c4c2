package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/scanner"
)

// DomainRecord is the stored form of one domain's verdict in one week:
// the classification-bearing projection of scanner.DomainResult that the
// longitudinal figures need — deployment flags, policy mode, taxonomy
// codes, category membership, delivery-failure — plus a hash of the full
// ClassificationKey so diffs can detect *any* classification change
// without storing the verbose key itself.
//
// Records are stored as canonical JSON: struct field order is fixed and
// slices are sorted, so encoding the same verdict always yields the same
// bytes — the property snapshot exports and the crash-resume
// byte-identical guarantee rest on.
type DomainRecord struct {
	Domain string `json:"domain"`
	// Present/Valid/PolicyOK are the deployment funnel flags.
	Present  bool `json:"present,omitempty"`
	Valid    bool `json:"valid,omitempty"`
	PolicyOK bool `json:"policy_ok,omitempty"`
	// Mode is the policy mode when PolicyOK ("enforce", "testing", "none").
	Mode string `json:"mode,omitempty"`
	// Stage is the policy retrieval failure stage key when retrieval
	// failed ("dns", "tcp", "tls", "http", "syntax").
	Stage string `json:"stage,omitempty"`
	// Mismatch is the Figure 8 inconsistency kind when not none.
	Mismatch string `json:"mismatch,omitempty"`
	// Codes are the domain's errtax codes, sorted and deduplicated.
	Codes []string `json:"codes,omitempty"`
	// Categories are the Figure 4 category keys, in presentation order.
	Categories []string `json:"categories,omitempty"`
	// MXHosts / MXInvalid count the domain's MXes and how many presented
	// PKIX-invalid certificates.
	MXHosts   int `json:"mx_hosts,omitempty"`
	MXInvalid int `json:"mx_invalid,omitempty"`
	// DeliveryFailure marks the paper's §4.2 hard-fail population.
	DeliveryFailure bool `json:"delivery_failure,omitempty"`
	// Canceled marks a verdict cut short by run cancellation; resumed
	// campaigns never store these (the shard is re-scanned instead).
	Canceled bool `json:"canceled,omitempty"`
	// Class is the truncated SHA-256 of the result's ClassificationKey.
	Class string `json:"class,omitempty"`
}

// FromResult projects a scan result onto its stored record.
func FromResult(r *scanner.DomainResult) DomainRecord {
	rec := DomainRecord{
		Domain:          r.Domain,
		Present:         r.RecordPresent,
		Valid:           r.RecordValid,
		PolicyOK:        r.PolicyOK,
		MXHosts:         len(r.MXHosts),
		DeliveryFailure: r.DeliveryFailure(),
		Canceled:        r.Canceled,
		Class:           classHash(r),
	}
	if r.PolicyOK {
		rec.Mode = string(r.Policy.Mode)
		if r.Mismatch.Kind != inconsistency.KindNone {
			rec.Mismatch = r.Mismatch.Kind.String()
		}
	} else if r.RecordValid {
		rec.Stage = r.PolicyStage.Key()
	}
	for _, p := range r.MXProblems {
		if !p.Valid() {
			rec.MXInvalid++
		}
	}
	for _, e := range r.TaxErrors() {
		if c := string(e.Code); !slices.Contains(rec.Codes, c) {
			rec.Codes = append(rec.Codes, c)
		}
	}
	sort.Strings(rec.Codes)
	for _, c := range r.Categories() {
		rec.Categories = append(rec.Categories, c.Key())
	}
	return rec
}

// classHash is the truncated SHA-256 of the result's ClassificationKey:
// 16 hex bytes is plenty to make cross-week hash equality mean "same
// classification" at campaign scale. The key is built in a stack buffer
// that fits a typical result, so hashing it costs no copy and, usually,
// no allocation.
func classHash(r *scanner.DomainResult) string {
	var buf [1024]byte
	sum := sha256.Sum256(r.AppendClassificationKey(buf[:0]))
	var h [16]byte
	hex.Encode(h[:], sum[:8])
	return string(h[:])
}

// Misconfigured mirrors scanner.DomainResult.Misconfigured on the
// stored projection.
func (rec *DomainRecord) Misconfigured() bool { return len(rec.Categories) > 0 }

// Encode renders the record's canonical byte form.
func (rec *DomainRecord) Encode() ([]byte, error) {
	return json.Marshal(rec)
}

// DecodeRecord parses a stored record value.
func DecodeRecord(v []byte) (DomainRecord, error) {
	var rec DomainRecord
	if err := json.Unmarshal(v, &rec); err != nil {
		return DomainRecord{}, fmt.Errorf("campaign: decode record: %w", err)
	}
	return rec, nil
}
