package campaign

import (
	"fmt"
	"testing"
)

// TestKeysMatchFmt pins the hand-padded store keys to the fmt layout
// they were first written with: stored weeks are found by these bytes.
func TestKeysMatchFmt(t *testing.T) {
	for _, id := range []string{"campaign", "job-000042"} {
		for _, week := range []int{0, 1, 9, 42, 999, 9999, maxWeeks, 123456, -1, -42, -1234} {
			if got, want := recordKey(id, week, "d.example"), fmt.Sprintf("c/%s/w/%04d/d/%s", id, week, "d.example"); got != want {
				t.Errorf("recordKey = %q, want %q", got, want)
			}
			if got, want := weekPrefix(id, week), fmt.Sprintf("c/%s/w/%04d/d/", id, week); got != want {
				t.Errorf("weekPrefix = %q, want %q", got, want)
			}
			if got, want := checkpointPrefix(id, week), fmt.Sprintf("c/%s/ck/%04d/", id, week); got != want {
				t.Errorf("checkpointPrefix = %q, want %q", got, want)
			}
			for _, shard := range []int{0, 7, 65536, maxShards - 1, maxShards, -3} {
				if got, want := checkpointKey(id, week, shard), fmt.Sprintf("c/%s/ck/%04d/%06d", id, week, shard); got != want {
					t.Errorf("checkpointKey = %q, want %q", got, want)
				}
			}
		}
	}
}
