package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Compare prints, for every end-to-end metric two -out files share, the
// two medians, how much worse the second is than the first, and the
// bound; and for every exact-count metric they share, whether the counts
// agree. It reports false when a bound is exceeded or a count differs:
// the instrument for "two runs of one commit agree" and for later
// before/after rows.
func Compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Workload != b.Workload || a.Scale != b.Scale {
		return false, fmt.Errorf("bench: %s is %s at scale %g, %s is %s at scale %g: not comparable",
			pathA, a.Workload, a.Scale, pathB, b.Workload, b.Scale)
	}
	ok := a.Correct && b.Correct
	fmt.Fprintf(w, "%s: %s (seed %d, failed %d) vs %s (seed %d, failed %d)\n",
		a.Workload, pathA, a.Seed, a.Failed, pathB, b.Seed, b.Failed)
	for _, m := range EndToEnd {
		va, inA := a.Metrics[m.Name]
		vb, inB := b.Metrics[m.Name]
		if !inA || !inB {
			continue
		}
		// worse > 0 means b is worse than a, as a share of a.
		worse := (vb.Value - va.Value) / va.Value
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict, ok = "EXCEEDS BOUND", false
		}
		fmt.Fprintf(w, "%-28s %14.4f %14.4f %-6s worse by %+6.2f%% (bound %4.1f%%) %s\n",
			m.Name, va.Value, vb.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
	}
	for _, m := range PerLayer {
		va, inA := a.Metrics[m.Name]
		vb, inB := b.Metrics[m.Name]
		if !m.Exact || !inA || !inB {
			continue
		}
		verdict := "identical"
		if va.Value != vb.Value {
			verdict, ok = "DIFFERS", false
		}
		fmt.Fprintf(w, "%-36s %14.4f %14.4f %-6s %s\n", m.Name, va.Value, vb.Value, m.Unit, verdict)
	}
	return ok, nil
}
