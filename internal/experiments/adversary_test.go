package experiments

import (
	"strings"
	"testing"

	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/sendertest"
)

// TestAttackMatrix runs the full enforcement matrix against the live
// sender stack and pins the headline invariants: no enforce-mode
// downgrade under any attack, testing mode always delivers but reports,
// every cell matches the sendertest model, and the canonical sender
// matches the attack registry.
func TestAttackMatrix(t *testing.T) {
	t.Parallel()
	rep, err := RunAttackMatrix(AttackMatrixConfig{Seed: 7})
	if err != nil {
		t.Fatalf("RunAttackMatrix: %v", err)
	}

	wantCells := len(faults.Attacks()) * len(PolicyModes) * len(matrixBehaviors)
	if len(rep.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), wantCells)
	}
	for _, c := range rep.Cells {
		if !c.OK {
			t.Errorf("cell %s/%s/%s: %s (live %s, model %s)",
				c.Attack, c.Mode, c.Behavior, c.Problem, c.Outcome(), c.Want)
		}
	}
	for _, d := range rep.Downgrades {
		t.Errorf("no-downgrade invariant violated: %s", d)
	}
	for _, h := range rep.TestingHoldbacks {
		t.Errorf("testing-reports invariant violated: %s", h)
	}
	for _, m := range rep.RegistryMismatches {
		t.Errorf("attack registry drift: %s", m)
	}
	if !rep.Deterministic {
		t.Error("same-seed runs diverged")
	}
	if !rep.Passed() {
		t.Error("report.Passed() = false")
	}

	// The matrix must include at least one true refusal and one
	// testing-mode reported violation, or the invariants are vacuous.
	var refusals, reported int
	for _, c := range rep.Cells {
		if c.Refused {
			refusals++
		}
		if c.Mode == "testing" && c.Delivered && c.ViolationRecorded {
			reported++
		}
	}
	if refusals == 0 {
		t.Error("matrix produced no refusals — enforcement never fired")
	}
	if reported == 0 {
		t.Error("matrix produced no testing-mode violation reports")
	}

	tbl := rep.Table()
	if len(tbl.Rows) != len(faults.Attacks())*len(PolicyModes) {
		t.Errorf("table rows = %d, want %d", len(tbl.Rows), len(faults.Attacks())*len(PolicyModes))
	}
}

// TestAttackMatrixEnforceNeverPlaintext re-derives the no-downgrade
// invariant directly from the cells, independent of the report's own
// bookkeeping: under EVERY attack, enforce mode with a validating
// sender either refuses or delivers verified TLS to the true MX.
func TestAttackMatrixEnforceNeverPlaintext(t *testing.T) {
	t.Parallel()
	rep, err := RunAttackMatrix(AttackMatrixConfig{Seed: 11})
	if err != nil {
		t.Fatalf("RunAttackMatrix: %v", err)
	}
	validating := map[string]bool{"mta-sts": true, "dual": true, "dual-flipped": true}
	for _, c := range rep.Cells {
		if c.Mode != "enforce" || !validating[c.Behavior] {
			continue
		}
		if c.Problem != "" && !c.Delivered && !c.Refused {
			t.Errorf("%s/%s: cell errored: %s", c.Attack, c.Behavior, c.Problem)
			continue
		}
		if !c.Delivered {
			if !c.Refused {
				t.Errorf("%s/%s: not delivered but not a policy refusal", c.Attack, c.Behavior)
			}
			continue
		}
		if !c.UsedTLS || !c.CertVerified {
			t.Errorf("%s/%s: enforce delivered with tls=%v certverified=%v",
				c.Attack, c.Behavior, c.UsedTLS, c.CertVerified)
		}
		if c.MXHost != victimMX {
			t.Errorf("%s/%s: enforce delivered to %s", c.Attack, c.Behavior, c.MXHost)
		}
	}
}

// TestAttackMatrixSubset exercises the Attacks filter and rejects
// unknown names.
func TestAttackMatrixSubset(t *testing.T) {
	rep, err := RunAttackMatrix(AttackMatrixConfig{Seed: 3, Attacks: []string{"starttls_strip"}})
	if err != nil {
		t.Fatalf("RunAttackMatrix: %v", err)
	}
	if want := len(PolicyModes) * len(matrixBehaviors); len(rep.Cells) != want {
		t.Errorf("cells = %d, want %d", len(rep.Cells), want)
	}
	if !rep.Passed() {
		t.Errorf("subset run failed: %v %v %v %v", rep.Mismatches, rep.Downgrades,
			rep.TestingHoldbacks, rep.RegistryMismatches)
	}
	if _, err := RunAttackMatrix(AttackMatrixConfig{Attacks: []string{"nonesuch"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown attack") {
		t.Errorf("unknown attack error = %v", err)
	}
}

// TestMatrixBehaviorsCoverRegistry pins that the canonical behavior is
// present and that every behavior name is unique.
func TestMatrixBehaviorsCoverRegistry(t *testing.T) {
	seen := make(map[string]bool)
	var hasCanonical bool
	for _, mb := range matrixBehaviors {
		if seen[mb.name] {
			t.Errorf("duplicate behavior %q", mb.name)
		}
		seen[mb.name] = true
		if mb.name == canonicalBehavior {
			hasCanonical = true
			want := sendertest.Behavior{SupportsTLS: true, ValidatesMTASTS: true, ValidatesDANE: true}
			if mb.b != want {
				t.Errorf("canonical behavior = %+v", mb.b)
			}
		}
	}
	if !hasCanonical {
		t.Fatalf("canonical behavior %q missing", canonicalBehavior)
	}
	if got := MatrixBehaviors(); len(got) != len(matrixBehaviors) {
		t.Errorf("MatrixBehaviors() = %d entries", len(got))
	}
}
