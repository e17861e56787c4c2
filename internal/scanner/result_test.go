package scanner_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
)

// fmtClassificationKey is ClassificationKey as it was first written,
// with fmt, kept verbatim as the reference for the hand-built key:
// campaign class hashes are taken over these bytes and compared across
// weeks, so the layout may not move by one byte.
func fmtClassificationKey(r *scanner.DomainResult) string {
	mxKeys := make([]string, 0, len(r.MXProblems))
	for mx := range r.MXProblems {
		mxKeys = append(mxKeys, mx)
	}
	sort.Strings(mxKeys)
	var b strings.Builder
	fmt.Fprintf(&b, "domain=%s canceled=%v mx=%v mx_lookup_err=%v ",
		r.Domain, r.Canceled, r.MXHosts, r.MXLookupErr)
	fmt.Fprintf(&b, "present=%v valid=%v record=%+v record_err=%v ",
		r.RecordPresent, r.RecordValid, r.Record, r.RecordErr)
	fmt.Fprintf(&b, "policy_ok=%v policy=%+v stage=%s cert=%s http=%d syntax=%v cname=%s ",
		r.PolicyOK, r.Policy, r.PolicyStage.Key(), r.PolicyCertProblem, r.PolicyHTTPStatus,
		r.PolicySyntaxErr, r.PolicyCNAME)
	for _, mx := range mxKeys {
		fmt.Fprintf(&b, "mx[%s]=%s ", mx, r.MXProblems[mx])
	}
	fmt.Fprintf(&b, "no_starttls=%v mismatch=%+v", r.MXNoSTARTTLS, r.Mismatch)
	return b.String()
}

// fmtPolicyString is mtasts.Policy.String as it was first written, with
// fmt: the policy bodies served by the benchmark's worlds are these
// bytes.
func fmtPolicyString(p mtasts.Policy) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "version: %s\r\n", p.Version)
	fmt.Fprintf(&sb, "mode: %s\r\n", p.Mode)
	for _, mx := range p.MXPatterns {
		fmt.Fprintf(&sb, "mx: %s\r\n", mx)
	}
	fmt.Fprintf(&sb, "max_age: %d\r\n", p.MaxAge)
	for _, f := range p.Extensions {
		fmt.Fprintf(&sb, "%s: %s\r\n", f.Name, f.Value)
	}
	return sb.String()
}

// checkKey fails t when r's key differs from the reference, printing
// both and where they part.
func checkKey(t *testing.T, what string, r *scanner.DomainResult) {
	t.Helper()
	got, want := r.ClassificationKey(), fmtClassificationKey(r)
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%s: key differs from the fmt reference at byte %d\n got: %q\nwant: %q", what, i, got, want)
}

// TestClassificationKeyMatchesFmtOnWorlds compares the key with its
// reference over every result of two generated worlds at two
// snapshots: every record, policy, certificate and MX failure mode the
// simulation emits. It also checks that the worlds reach the key's
// branches, so the comparison is not carried by healthy domains alone.
func TestClassificationKeyMatchesFmtOnWorlds(t *testing.T) {
	var policyOK, mismatch, recordErr, mxInvalid, stageErr int
	for _, seed := range []int64{7, 11} {
		world := simnet.Generate(simnet.Config{Seed: seed, Scale: 0.05})
		for _, month := range []int{simnet.Months / 2, simnet.Months - 1} {
			var arts []scanner.Artifacts
			for _, d := range world.Domains {
				if a, ok := world.ArtifactsAt(d, month); ok {
					arts = append(arts, a)
				}
			}
			scan := scanner.NewArtifactScanner(arts, simnet.SnapshotTime(month), 0)
			for _, a := range arts {
				r := scan.ScanDomain(context.Background(), a.Domain)
				checkKey(t, fmt.Sprintf("seed %d month %d %s", seed, month, a.Domain), &r)
				if r.PolicyOK {
					policyOK++
				}
				if r.Mismatch.Kind != inconsistency.KindNone {
					mismatch++
				}
				if r.RecordErr != nil {
					recordErr++
				}
				if r.PolicyStage != mtasts.StageNone {
					stageErr++
				}
				for _, p := range r.MXProblems {
					if !p.Valid() {
						mxInvalid++
						break
					}
				}
			}
		}
	}
	t.Logf("results with a policy %d, a mismatch %d, a record error %d, a retrieval failure %d, an invalid MX %d",
		policyOK, mismatch, recordErr, stageErr, mxInvalid)
	if policyOK == 0 || mismatch == 0 || recordErr == 0 || stageErr == 0 || mxInvalid == 0 {
		t.Fatal("the worlds do not reach every branch of the key")
	}
}

// TestClassificationKeyMatchesFmtOnGenerated compares the key with its
// reference over seeded random results that reach what the worlds do
// not: nil and empty slices, each error field set or nil, record and
// policy extensions, MX maps wider than the key's stack buffer, out-of-
// range enum values, Canceled, and mismatches with patterns.
func TestClassificationKeyMatchesFmtOnGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	names := []string{"", "a.test", "mx1.provider.test", "x&y<z>.test", "sp ace.test", "pct%d.test", "ünï.test"}
	name := func() string { return names[rng.Intn(len(names))] }
	list := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		l := make([]string, 1+rng.Intn(4))
		for i := range l {
			l[i] = name()
		}
		return l
	}
	errs := []error{
		nil,
		errors.New("plain failure"),
		mtasts.ErrBadID,
		fmt.Errorf("%w: %q", mtasts.ErrBadVersion, "v=STSv2"),
		mtasts.ErrPolicyBadMX,
	}
	anErr := func() error { return errs[rng.Intn(len(errs))] }
	fields := func() []mtasts.Field {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []mtasts.Field{}
		}
		f := make([]mtasts.Field, 1+rng.Intn(3))
		for i := range f {
			f[i] = mtasts.Field{Name: "ext" + fmt.Sprint(i), Value: name()}
		}
		return f
	}
	modes := []mtasts.Mode{mtasts.ModeEnforce, mtasts.ModeTesting, mtasts.ModeNone, "", "bogus"}
	for i := 0; i < 3000; i++ {
		r := scanner.DomainResult{
			Domain:        name(),
			MXHosts:       list(),
			MXLookupErr:   anErr(),
			RecordPresent: rng.Intn(2) == 0,
			RecordValid:   rng.Intn(2) == 0,
			Record:        mtasts.Record{Version: mtasts.Version, ID: name(), Extensions: fields()},
			RecordErr:     anErr(),
			PolicyOK:      rng.Intn(2) == 0,
			Policy: mtasts.Policy{
				Version:    mtasts.Version,
				Mode:       modes[rng.Intn(len(modes))],
				MaxAge:     rng.Int63n(2*mtasts.MaxMaxAge) - 1000,
				MXPatterns: list(),
				Extensions: fields(),
			},
			PolicyStage:       mtasts.Stage(rng.Intn(8)),
			PolicyCertProblem: pki.Problem(rng.Intn(8)),
			PolicyHTTPStatus:  []int{0, 200, 404, -1}[rng.Intn(4)],
			PolicySyntaxErr:   anErr(),
			PolicyCNAME:       name(),
			MXNoSTARTTLS:      list(),
			Mismatch: inconsistency.Finding{
				Domain:               name(),
				Kind:                 inconsistency.Kind(rng.Intn(7)),
				MXHosts:              list(),
				Patterns:             list(),
				MTASTSLabelInPattern: rng.Intn(2) == 0,
				Enforce:              rng.Intn(2) == 0,
			},
			Attempts: rng.Int63n(10),
			Retries:  rng.Int63n(3),
			Canceled: rng.Intn(5) == 0,
		}
		switch rng.Intn(3) {
		case 0:
		case 1:
			r.MXProblems = map[string]pki.Problem{}
		default:
			r.MXProblems = make(map[string]pki.Problem)
			for j, n := 0, 1+rng.Intn(12); j < n; j++ {
				r.MXProblems[fmt.Sprintf("mx%02d.%s", rng.Intn(20), name())] = pki.Problem(rng.Intn(8))
			}
		}
		checkKey(t, fmt.Sprintf("generated result %d", i), &r)
	}
}

// TestPolicyStringMatchesFmt pins Policy.String to its fmt reference.
func TestPolicyStringMatchesFmt(t *testing.T) {
	for _, p := range []mtasts.Policy{
		{},
		{Version: mtasts.Version, Mode: mtasts.ModeNone, MaxAge: 0},
		{Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400, MXPatterns: []string{"mx.example.com"}},
		{Version: mtasts.Version, Mode: mtasts.ModeTesting, MaxAge: mtasts.MaxMaxAge, MXPatterns: []string{"*.example.com", "mx2.example.net", ""}},
		{Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: -1, MXPatterns: []string{}, Extensions: []mtasts.Field{}},
		{Version: "STSv9", Mode: "bogus", MaxAge: 1<<63 - 1, Extensions: []mtasts.Field{{Name: "x-ext", Value: "1"}, {Name: "", Value: "%s %d"}}},
		{Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: -1 << 63, MXPatterns: []string{"a&b<c>"}},
	} {
		if got, want := p.String(), fmtPolicyString(p); got != want {
			t.Errorf("Policy%+v.String() = %q, want %q", p, got, want)
		}
	}
}
