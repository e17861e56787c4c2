//go:build !race

package sf

import (
	"fmt"
	"testing"
)

// TestCacheAllocsPerKey pins the memo's cost: with a SizeHint that
// covers the keys, a Cache allocates one entry per distinct key plus a
// map that never grows, and a repeated key allocates nothing. Not built
// under -race, like the other allocation budgets.
func TestCacheAllocsPerKey(t *testing.T) {
	const keys = 200
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("mx%03d.example", i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		c := Cache[int]{SizeHint: keys}
		for round := 0; round < 3; round++ {
			for i, k := range names {
				c.Do(k, func() int { return i })
			}
		}
	})
	t.Logf("%.0f allocations for %d keys", allocs, keys)
	if allocs > keys+mapAllocs {
		t.Errorf("%.0f allocations for %d keys, want at most one per key plus %d for the map", allocs, keys, mapAllocs)
	}
}

// mapAllocs is the fixed cost of a Cache whose map was sized for a few
// hundred keys, whatever their number: 5 allocations on amd64 with
// go1.24. Without the hint the map grows, and costs 14 for 200 keys.
const mapAllocs = 5
