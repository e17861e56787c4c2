package docscheck

import (
	"regexp"
	"testing"

	"github.com/netsecurelab/mtasts/internal/lint"
)

// TestLintDocsConsistency keeps docs/LINT.md's analyzer table and the
// registered suite (lint.All — what `mtastslint -list` prints) in
// lockstep both ways: every registered analyzer has a convention row
// with a motivating defect, and every row names an analyzer that still
// exists. Adding an analyzer without documenting it, or retiring one
// and leaving its row behind, fails here.
func TestLintDocsConsistency(t *testing.T) {
	rowRe := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	documented := map[string]bool{}
	for _, m := range tableRows(t, "docs/LINT.md", "", rowRe) {
		documented[m[1]] = true
	}
	registered := map[string]bool{}
	for _, a := range lint.All("") {
		registered[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc string for -list", a.Name)
		}
		if !documented[a.Name] {
			t.Errorf("analyzer %q (in -list) has no convention row in docs/LINT.md", a.Name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/LINT.md documents analyzer %q, which is not registered in lint.All", name)
		}
	}
}
