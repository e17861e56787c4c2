package docscheck

import (
	"regexp"
	"testing"

	"github.com/netsecurelab/mtasts/internal/scansvc"
)

// TestServiceFlagTableExact pins the flag table in docs/SERVICE.md to
// cmd/mtasts-serve exactly: every flag the command defines has a table
// row, every table row names a defined flag. mtasts-serve registers its
// flags on a set named "mtasts-serve" inside run().
func TestServiceFlagTableExact(t *testing.T) {
	defined := commandFlags(t, "mtasts-serve")["mtasts-serve"]
	if len(defined) == 0 {
		t.Fatal("mtasts-serve: no flags parsed off its flag set (format drift?)")
	}
	documented := map[string]bool{}
	for _, m := range tableRows(t, "docs/SERVICE.md", "Flags", flagRowRe) {
		documented[m[1]] = true
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("mtasts-serve: flag -%s has no table row in SERVICE.md", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("SERVICE.md: table documents -%s, which mtasts-serve does not define", name)
		}
	}
}

// TestServiceEndpointTableExact pins the endpoint table in
// docs/SERVICE.md to the scansvc.Endpoints table the HTTP mux is built
// from, both ways: every route the service serves has a documented row,
// every documented row names a served route.
func TestServiceEndpointTableExact(t *testing.T) {
	rowRe := regexp.MustCompile("^\\| `([A-Z]+) (/[^`]*)` \\|")
	documented := map[string]bool{}
	for _, m := range tableRows(t, "docs/SERVICE.md", "HTTP API", rowRe) {
		documented[m[1]+" "+m[2]] = true
	}
	served := map[string]bool{}
	for _, e := range scansvc.Endpoints {
		key := e.Method + " " + e.Pattern
		served[key] = true
		if !documented[key] {
			t.Errorf("scansvc: endpoint %q has no table row in SERVICE.md", key)
		}
	}
	for key := range documented {
		if !served[key] {
			t.Errorf("SERVICE.md: documents endpoint %q, which the service does not serve", key)
		}
	}
}
