//go:build !race

package campaign

import (
	"slices"
	"testing"
)

// TestFromResultAllocBudget keeps reflection off the record path: a
// fully populated result (record and policy extensions, three probed
// MXes, a mismatch finding) projects onto its record within a fixed
// allocation count, the measured value plus a small margin. Formatting
// the class key with fmt again would add about 35. Not built under
// -race, like the store's budget test.
func TestFromResultAllocBudget(t *testing.T) {
	cases := classCases()
	i := slices.IndexFunc(cases, func(c classCase) bool { return c.name == "testing with mixed MX" })
	if i < 0 {
		t.Fatal("no fully populated case")
	}
	full := &cases[i].r
	var sink DomainRecord
	got := testing.AllocsPerRun(100, func() { sink = FromResult(full) })
	const budget = 21 // 19 measured, plus two
	if got > budget {
		t.Errorf("FromResult: %v allocations, budget %d", got, budget)
	} else {
		t.Logf("FromResult: %v allocations, class %s", got, sink.Class)
	}
}
