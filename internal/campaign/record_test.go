package campaign

import (
	"errors"
	"testing"

	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/scanner"
)

type classCase struct {
	name  string
	r     scanner.DomainResult
	class string
}

// classCases are hand-built results across the verdict space, each with
// the Class hash its record has stored since class hashes were first
// written. ComputeDiff compares stored hashes across weeks, so a hash
// that moves reads every continuing domain as changed: these literals
// may change only together with a stated migration of stored weeks.
func classCases() []classCase {
	enforce := mtasts.Policy{Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400,
		MXPatterns: []string{"mx1.example.test", "*.mail.example.test"}}
	rec := mtasts.Record{Version: mtasts.Version, ID: "20240101"}
	return []classCase{
		{"bare domain", scanner.DomainResult{Domain: "a.test"}, "794710c98cd642b4"},
		{"MX lookup failed", scanner.DomainResult{Domain: "b.test", MXLookupErr: errors.New("SERVFAIL")}, "3268322860e4d461"},
		{"invalid record", scanner.DomainResult{Domain: "c.test", MXHosts: []string{"mx.c.test"},
			RecordPresent: true, RecordErr: mtasts.ErrBadID}, "e140212025c12a5b"},
		{"policy TLS failure", scanner.DomainResult{Domain: "d.test", MXHosts: []string{"mx.d.test"},
			RecordPresent: true, RecordValid: true, Record: rec,
			PolicyStage: mtasts.StageTLS, PolicyCertProblem: pki.ProblemExpired}, "87db4aa5c80de909"},
		{"policy HTTP 404", scanner.DomainResult{Domain: "e.test", RecordPresent: true, RecordValid: true, Record: rec,
			PolicyStage: mtasts.StageHTTP, PolicyHTTPStatus: 404, PolicyCNAME: "mta-sts.provider.test"}, "35642689e7c9b633"},
		{"policy syntax", scanner.DomainResult{Domain: "f.test", RecordPresent: true, RecordValid: true, Record: rec,
			PolicyStage: mtasts.StageSyntax, PolicySyntaxErr: mtasts.ErrPolicyMode}, "1a1392ae36feab83"},
		{"healthy enforce", scanner.DomainResult{Domain: "example.test", MXHosts: []string{"mx1.example.test"},
			RecordPresent: true, RecordValid: true, Record: rec, PolicyOK: true, Policy: enforce,
			MXProblems: map[string]pki.Problem{"mx1.example.test": pki.OK}}, "34a18b95964c479f"},
		{"enforce typo mismatch", scanner.DomainResult{Domain: "g.test", MXHosts: []string{"mx.g.test"},
			RecordPresent: true, RecordValid: true, Record: rec, PolicyOK: true,
			Policy:     mtasts.Policy{Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 604800, MXPatterns: []string{"mx.gg.test"}},
			MXProblems: map[string]pki.Problem{"mx.g.test": pki.OK},
			Mismatch: inconsistency.Finding{Domain: "g.test", Kind: inconsistency.KindTypo,
				MXHosts: []string{"mx.g.test"}, Patterns: []string{"mx.gg.test"}, Enforce: true}}, "bba28e47b068046d"},
		{"testing with mixed MX", scanner.DomainResult{Domain: "h.test",
			MXHosts:       []string{"mx1.h.test", "mx2.h.test", "mx3.h.test", "plain.h.test"},
			RecordPresent: true, RecordValid: true,
			Record:   mtasts.Record{Version: mtasts.Version, ID: "abc", Extensions: []mtasts.Field{{Name: "ext", Value: "1"}}},
			PolicyOK: true,
			Policy: mtasts.Policy{Version: mtasts.Version, Mode: mtasts.ModeTesting, MaxAge: 3600,
				MXPatterns: []string{"*.h.test"}, Extensions: []mtasts.Field{{Name: "x", Value: "y"}}},
			MXProblems: map[string]pki.Problem{"mx3.h.test": pki.ProblemSelfSigned, "mx1.h.test": pki.OK,
				"mx2.h.test": pki.ProblemNameMismatch},
			MXNoSTARTTLS: []string{"plain.h.test"},
			Mismatch: inconsistency.Finding{Domain: "h.test", MXHosts: []string{"mx1.h.test"},
				Patterns: []string{"*.h.test"}, MTASTSLabelInPattern: true}}, "b6c7e08c20eba6cf"},
		{"canceled", scanner.DomainResult{Domain: "i.test", MXHosts: []string{}, Canceled: true,
			Attempts: 3, Retries: 2}, "2038fa7a557d1ead"},
		{"escaped domain", scanner.DomainResult{Domain: "x&y<z>.test", MXHosts: []string{"mx.x&y<z>.test"},
			MXProblems: map[string]pki.Problem{}}, "bc8c655ce93ce7d5"},
	}
}

// TestClassHashPinned pins FromResult's Class for the cases above to
// the hex stored for them so far.
func TestClassHashPinned(t *testing.T) {
	for _, c := range classCases() {
		if got := FromResult(&c.r).Class; got != c.class {
			t.Errorf("%s: Class = %q, want %q", c.name, got, c.class)
		}
	}
}
