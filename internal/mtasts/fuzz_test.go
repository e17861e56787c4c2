package mtasts

import (
	"errors"
	"strings"
	"testing"
)

// Native fuzz targets; `go test` runs the seed corpus, `go test -fuzz`
// explores further. The invariants: no panics, and no parser returns a
// "valid" result that violates its own postconditions.

func FuzzParseRecord(f *testing.F) {
	for _, seed := range []string{
		"v=STSv1; id=20240929;",
		"v=STSv1;",
		"v=STSv1; id=bad-id;",
		"v=STSv1; id=1; ext=val;",
		"v = STSv1 ; id = x ;",
		"v=spf1 -all",
		";;;===",
		// Adversary-shaped records (internal/faults spoofs): malformed id
		// with an embedded space, and record-id flapping shapes.
		"v=STSv1; id=evil id!;",
		"v=STSv1; id=evil7f3a2b1c;",
		"v=STSv1; id=20260801;v=STSv1; id=20260801;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rec, err := ParseRecord(s)
		if err == nil {
			if rec.Version != Version {
				t.Fatalf("valid record with version %q", rec.Version)
			}
			if rec.ID == "" || len(rec.ID) > 32 {
				t.Fatalf("valid record with bad id %q", rec.ID)
			}
			// Round-trip: the canonical serialization must re-parse.
			if _, err := ParseRecord(rec.String()); err != nil {
				t.Fatalf("canonical form %q does not re-parse: %v", rec.String(), err)
			}
		}
	})
}

// policySeeds is FuzzParsePolicy's inline seed corpus; the
// differential test in policy_split_test.go reads it too.
var policySeeds = []string{
	"version: STSv1\nmode: enforce\nmx: mx.example.com\nmax_age: 86400\n",
	rfcExamplePolicy,
	"version: STSv1\r\nmode: none\r\nmax_age: 0\r\n",
	"mode: enforce\n",
	"",
	"version: STSv1\nmode: enforce\nmx: *.x.y\nmax_age: 1\nmax_age: 2\n",
	// Adversary-shaped bodies (internal/faults tampering): rollback to
	// mode none, stale max_age rewrite, truncation mid-token, CRLF and
	// lone-CR injection, embedded NULs, and a max_age overflow.
	"version: STSv1\nmode: none\nmax_age: 604800\n",
	"version: STSv1\nmode: enforce\nmx: mx.victim.test\nmax_age: 60\n",
	"version: STSv1\nmode: enfo",
	"version: STSv1\r\nmode: enforce\r\nmx: a.example\r\nmax_age: 86400\r\nmx: b.example\n",
	"version: STSv1\rmode: enforce\rmx: a.example\rmax_age: 86400\r",
	"version: STSv1\nmode: enforce\nmx: mx.example\x00.evil\nmax_age: 86400\n",
	"version: STSv1\nmode: enforce\nmx: mx.example\nmax_age: 99999999999999999999\n",
	strings.Repeat("mx: oversized-filler.invalid\n", 64),
}

func FuzzParsePolicy(f *testing.F) {
	for _, seed := range policySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := ParsePolicy(body)
		if msg := differsFromSplit(body, p, err); msg != "" {
			t.Fatal(msg)
		}
		if err == nil {
			if !p.Mode.Valid() {
				t.Fatalf("valid policy with mode %q", p.Mode)
			}
			if p.MaxAge < 0 || p.MaxAge > MaxMaxAge {
				t.Fatalf("valid policy with max_age %d", p.MaxAge)
			}
			if p.Mode != ModeNone && len(p.MXPatterns) == 0 {
				t.Fatal("valid enforce/testing policy without mx patterns")
			}
			for _, pat := range p.MXPatterns {
				if CheckMXPattern(pat) != nil {
					t.Fatalf("valid policy with invalid pattern %q", pat)
				}
			}
			if _, err := ParsePolicy([]byte(p.String())); err != nil {
				t.Fatalf("canonical policy does not re-parse: %v\n%s", err, p.String())
			}
		}
	})
}

// TestParsePolicyOversizedBody pins the size gate the adversary's
// oversized-body attack leans on: a body past MaxPolicySize must be
// rejected with ErrPolicyTooLarge, never partially parsed.
func TestParsePolicyOversizedBody(t *testing.T) {
	filler := strings.Repeat("mx: oversized-filler.invalid\n", MaxPolicySize/28+2)
	body := []byte("version: STSv1\nmode: enforce\n" + filler + "max_age: 86400\n")
	if len(body) <= MaxPolicySize {
		t.Fatalf("test body too small: %d bytes", len(body))
	}
	if _, err := ParsePolicy(body); !errors.Is(err, ErrPolicyTooLarge) {
		t.Fatalf("ParsePolicy(%d bytes) = %v, want ErrPolicyTooLarge", len(body), err)
	}
}

// TestParseRecordSpoofShapes pins that the adversary's spoofed record
// is malformed (forcing the TOFU fallback the matrix relies on) while
// its valid-but-flapping record shape parses.
func TestParseRecordSpoofShapes(t *testing.T) {
	if _, err := ParseRecord("v=STSv1; id=evil id!;"); err == nil {
		t.Fatal("spoofed record with embedded space parsed as valid")
	}
	rec, err := ParseRecord("v=STSv1; id=evil7f3a2b1c;")
	if err != nil {
		t.Fatalf("flapping-id record: %v", err)
	}
	if rec.ID != "evil7f3a2b1c" {
		t.Fatalf("flapping-id record id = %q", rec.ID)
	}
}
