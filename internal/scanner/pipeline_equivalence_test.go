package scanner_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
)

// TestPipelinedMatchesFlatOnFullDataset is the scheduler's acceptance
// check: over the complete generated study population at the final
// snapshot — every record, policy, certificate, and MX failure mode the
// simulation emits, including shared provider MX hosts — the Runner
// classifies every domain byte-identically to the flat reference:
// ScanDomain called on one domain after another. (It lives in package
// scanner_test because simnet itself imports scanner.)
//
// The Runner shares MX probe outcomes within one Run, so the two
// subtests differ in what can be shared: "pipelined" gives each domain
// a Run of its own, so no probe is shared across domains, and
// "pipelined+dedup" scans the whole population in one Run, so every
// shared provider MX host is probed once and its outcome reused.
//
// Both sides run the same ArtifactScanner, so the comparison isolates
// the scheduler: any lost stage, misapplied outcome, or cross-domain
// cache bleed shows up as a ClassificationKey diff, and anything the
// key misses but the store keeps as a diff in the canonical campaign
// record bytes.
func TestPipelinedMatchesFlatOnFullDataset(t *testing.T) {
	world := simnet.Generate(simnet.Config{Seed: 7, Scale: 0.05})
	last := simnet.Months - 1

	var arts []scanner.Artifacts
	for _, d := range world.Domains {
		if a, ok := world.ArtifactsAt(d, last); ok {
			arts = append(arts, a)
		}
	}
	if len(arts) < 100 {
		t.Fatalf("dataset too small to be meaningful: %d domains", len(arts))
	}
	domains := make([]string, len(arts))
	for i := range arts {
		domains[i] = arts[i].Domain
	}
	scan := scanner.NewArtifactScanner(arts, simnet.SnapshotTime(last), 0)

	type verdict struct {
		key    string
		record []byte
	}
	verdictOf := func(r *scanner.DomainResult) verdict {
		rec := campaign.FromResult(r)
		b, err := rec.Encode()
		if err != nil {
			t.Fatalf("%s: encode record: %v", r.Domain, err)
		}
		return verdict{key: r.ClassificationKey(), record: b}
	}
	want := make(map[string]verdict, len(domains))
	for _, d := range domains {
		r := scan.ScanDomain(context.Background(), d)
		want[d] = verdictOf(&r)
	}

	for _, cfg := range []struct {
		name string
		run  func(*scanner.Runner) []scanner.DomainResult
	}{
		{"pipelined", func(runner *scanner.Runner) []scanner.DomainResult {
			var results []scanner.DomainResult
			for _, d := range domains {
				results = append(results, runner.Run(context.Background(), []string{d})...)
			}
			return results
		}},
		{"pipelined+dedup", func(runner *scanner.Runner) []scanner.DomainResult {
			return runner.Run(context.Background(), domains)
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			results := cfg.run(&scanner.Runner{Workers: 16, Scan: scan})
			if len(results) != len(domains) {
				t.Fatalf("%d results for %d domains", len(results), len(domains))
			}
			diffs := 0
			for i := range results {
				r := &results[i]
				got, ref := verdictOf(r), want[r.Domain]
				if got.key != ref.key || !bytes.Equal(got.record, ref.record) {
					diffs++
					if diffs <= 3 {
						t.Errorf("%s diverged:\n  sequential: %s\n              %s\n  runner:     %s\n              %s",
							r.Domain, ref.key, ref.record, got.key, got.record)
					}
				}
			}
			if diffs > 3 {
				t.Errorf("... and %d more divergent domains (of %d)", diffs-3, len(domains))
			}
		})
	}
}
