package scanner

import (
	"context"
	"slices"
	"sync"
	"testing"
)

// orderScanner records the order ScanDomain sees its domains in.
type orderScanner struct {
	mu   sync.Mutex
	seen []string
}

func (s *orderScanner) ScanDomain(_ context.Context, d string) DomainResult {
	s.mu.Lock()
	s.seen = append(s.seen, d)
	s.mu.Unlock()
	return DomainResult{Domain: d, RecordPresent: d[0] == 'b'}
}

// TestRunnerResultsSortedFeedOrderKept: Run scans domains in the order
// they were submitted, duplicates included, and returns one result per
// submitted domain, sorted by domain, each carrying its own domain's
// verdict.
func TestRunnerResultsSortedFeedOrderKept(t *testing.T) {
	domains := []string{"c.test", "a.test", "b2.test", "a.test", "b1.test", "0.test"}
	s := &orderScanner{}
	got := (&Runner{Workers: 1, Scan: s}).Run(context.Background(), domains)
	if !slices.Equal(s.seen, domains) {
		t.Errorf("scanned in order %q, want the submission order %q", s.seen, domains)
	}
	want := slices.Clone(domains)
	slices.Sort(want)
	if len(got) != len(want) {
		t.Fatalf("%d results for %d domains", len(got), len(want))
	}
	for i, r := range got {
		if r.Domain != want[i] || r.RecordPresent != (r.Domain[0] == 'b') {
			t.Errorf("result %d = %q (record %v), want %q", i, r.Domain, r.RecordPresent, want[i])
		}
	}
}
