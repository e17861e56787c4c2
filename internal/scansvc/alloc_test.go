//go:build !race

package scansvc

import (
	"io"
	"testing"

	"github.com/netsecurelab/mtasts/internal/store"
)

// TestJoinedLineAllocBudget keeps the joined stream off per-record JSON
// round trips: one joined line stays within a fixed allocation count,
// the measured value plus two, both for a domain without
// TLSRPT evidence and for one with a stored report, whose own decode
// and summary marshal are most of what is left. Decoding the record and
// marshalling an envelope around it again would add about 8 per line. Not built under -race, like the store's budget test.
func TestJoinedLineAllocBudget(t *testing.T) {
	svc := newTestService(t, store.NewMem(), nil)
	_, names := worldScan()
	if _, err := svc.IngestTLSRPT([]byte(testReportJSON(t, "r1", names[0], 10, 1))); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		domain string
		budget float64
	}{
		{"without evidence", names[1], 13},
		{"with one report", names[0], 40},
	} {
		j, err := svc.Submit("acme", []string{c.domain})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, svc, j.ID, StateDone)
		got := testing.AllocsPerRun(100, func() {
			if err := svc.WriteResults(io.Discard, j.ID, true); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("one joined line %s: %v allocations, budget %v", c.name, got, c.budget)
		} else {
			t.Logf("one joined line %s: %v allocations", c.name, got)
		}
	}
}
