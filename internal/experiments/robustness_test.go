package experiments

import (
	"strings"
	"testing"

	"github.com/netsecurelab/mtasts/internal/faults"
)

// The PR's acceptance criterion: a seeded fault plan with ~10% DNS loss
// plus SERVFAIL blips run through scanner.Runner yields zero domains
// misclassified into persistent error categories when retries are
// enabled, and reproduces identically across two runs with the same seed.
func TestRobustnessRetriesAbsorbSeededFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-substrate fault-injection run")
	}
	t.Parallel()
	rep, err := RunRobustness(RobustnessConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	if n := len(rep.Baseline.Misclassified); n != 0 {
		t.Fatalf("baseline (no faults) misclassified %d domains: %v",
			n, rep.Baseline.Misclassified)
	}
	for i, run := range rep.WithRetry {
		if len(run.Misclassified) != 0 {
			t.Errorf("retries-enabled run #%d misclassified %d/%d domains:\n  %s",
				i+1, len(run.Misclassified), rep.Domains,
				strings.Join(run.Misclassified, "\n  "))
		}
		if run.Retries == 0 {
			t.Errorf("run #%d recorded no retries — the fault plan injected nothing", i+1)
		}
		if run.Recovered == 0 {
			t.Errorf("run #%d recovered no operations — faults were never absorbed", i+1)
		}
	}
	if n := len(rep.Staged.Misclassified); n != 0 {
		t.Errorf("staged run misclassified %d/%d domains:\n  %s",
			n, rep.Domains, strings.Join(rep.Staged.Misclassified, "\n  "))
	}
	if rep.Staged.Summary.Total != rep.Domains || rep.Staged.Retries == 0 {
		t.Errorf("staged run scanned %d/%d domains with %d retries",
			rep.Staged.Summary.Total, rep.Domains, rep.Staged.Retries)
	}
	if !rep.Deterministic {
		t.Errorf("same-seed runs diverged:\nrun1:\n%s\nrun2:\n%s",
			rep.WithRetry[0].Fingerprint, rep.WithRetry[1].Fingerprint)
	}
	if rep.WithRetry[0].Summary.Total != rep.Domains {
		t.Errorf("run scanned %d domains, fleet has %d",
			rep.WithRetry[0].Summary.Total, rep.Domains)
	}

	// The counterfactual that motivates the retry layer: the same faults
	// without retries push healthy domains into error categories.
	if len(rep.NoRetry.Misclassified) == 0 {
		t.Error("no-retry run misclassified nothing; the plan is too weak to exercise the retry layer")
	}
	if !rep.Passed() {
		t.Error("report.Passed() = false after all component checks passed")
	}
}

// The concurrent scanner.Runner must absorb the same seeded faults the
// sequential ScanDomain loop does: with MaxAttempts strictly above the
// plan's MaxConsecutive, recovery is guaranteed regardless of stage
// interleaving, so every domain must come back with the
// ClassificationKey the sequential loop produced — and that verdict
// must be the fully healthy one. Retry counts are not compared: the
// Runner is concurrent and probes each MX host once, so its retry trace
// is interleaving-sensitive (ClassificationKey deliberately excludes
// it).
func TestRobustnessPipelinedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-substrate fault-injection run")
	}
	t.Parallel()
	cfg := RobustnessConfig{Seed: 1}.withDefaults()
	w, err := buildRobustnessWorld(cfg.Domains)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.net.Close(); err != nil {
			t.Errorf("closing substrate: %v", err)
		}
	}()

	want := make(map[string]string, cfg.Domains)
	for _, r := range w.scan(faults.NewInjector(cfg.Plan), cfg.MaxAttempts, cfg, false) {
		if reason := misclassifyReason(&r); reason != "" {
			t.Errorf("sequential reference misclassified %s: %s", r.Domain, reason)
		}
		want[r.Domain] = r.ClassificationKey()
	}

	results := w.scan(faults.NewInjector(cfg.Plan), cfg.MaxAttempts, cfg, true)
	if len(results) != cfg.Domains {
		t.Fatalf("%d results for a fleet of %d", len(results), cfg.Domains)
	}
	var retries, recovered int64
	for i := range results {
		r := &results[i]
		if got := r.ClassificationKey(); got != want[r.Domain] {
			t.Errorf("%s diverged:\n  sequential: %s\n  runner:     %s", r.Domain, want[r.Domain], got)
		}
		retries += r.Retries
		recovered += r.RetryRecovered
	}
	if retries == 0 {
		t.Error("no retries recorded — the fault plan injected nothing")
	}
	if recovered == 0 {
		t.Error("no operations recovered — faults were never absorbed")
	}
}

// A fresh injector per run means the faulted runs see the same fault
// sequence; different seeds must actually change the injected pattern.
func TestRobustnessSeedMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("full-substrate fault-injection run")
	}
	t.Parallel()
	a, err := RunRobustness(RobustnessConfig{Seed: 2, Domains: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRobustness(RobustnessConfig{Seed: 3, Domains: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Deterministic || !b.Deterministic {
		t.Fatal("same-seed runs diverged within a report")
	}
	// Retry traces are part of the fingerprint, so distinct fault seeds
	// should leave distinct traces. (Verdicts stay clean in both.)
	if a.WithRetry[0].Fingerprint == b.WithRetry[0].Fingerprint &&
		countsString(a.WithRetry[0].FaultCounts) == countsString(b.WithRetry[0].FaultCounts) {
		t.Error("seeds 2 and 3 produced identical fault traces")
	}
}
