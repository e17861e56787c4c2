package docscheck

import (
	"regexp"
	"strings"
	"testing"

	"github.com/netsecurelab/mtasts/internal/faults"
)

// adversaryRow is one parsed catalog row from docs/ADVERSARY.md.
type adversaryRow struct {
	layer, code            string
	none, testing, enforce string
}

// parseAdversaryCatalog extracts the attack table from docs/ADVERSARY.md.
func parseAdversaryCatalog(t *testing.T) map[string]adversaryRow {
	t.Helper()
	rowRe := regexp.MustCompile("^\\| `([a-z_]+)` \\| ([a-z]+) \\| (`[a-z_]+`|—) \\| ([a-z-]+) \\| ([a-z-]+) \\| ([a-z-]+) \\|$")
	rows := map[string]adversaryRow{}
	for _, m := range tableRows(t, "docs/ADVERSARY.md", "Attack catalog", rowRe) {
		code := ""
		if m[3] != "—" {
			code = strings.Trim(m[3], "`")
		}
		if _, dup := rows[m[1]]; dup {
			t.Errorf("ADVERSARY.md: duplicate row for attack %q", m[1])
		}
		rows[m[1]] = adversaryRow{layer: m[2], code: code,
			none: m[4], testing: m[5], enforce: m[6]}
	}
	return rows
}

// TestAdversaryCatalogMatchesRegistry pins the attack table in
// docs/ADVERSARY.md to the internal/faults registry exactly, both ways:
// every registered attack has a row with the registry's layer, errtax
// code, and per-mode expected outcomes; every row names a registered
// attack.
func TestAdversaryCatalogMatchesRegistry(t *testing.T) {
	rows := parseAdversaryCatalog(t)
	registered := map[string]bool{}
	for _, a := range faults.Attacks() {
		registered[a.Name] = true
		row, ok := rows[a.Name]
		if !ok {
			t.Errorf("ADVERSARY.md: registered attack %q has no catalog row", a.Name)
			continue
		}
		if row.layer != a.Layer {
			t.Errorf("%s: catalog layer %q, registry %q", a.Name, row.layer, a.Layer)
		}
		if row.code != string(a.Code) {
			t.Errorf("%s: catalog code %q, registry %q", a.Name, row.code, a.Code)
		}
		for _, c := range []struct{ mode, doc, reg string }{
			{"none", row.none, a.ExpectNone},
			{"testing", row.testing, a.ExpectTesting},
			{"enforce", row.enforce, a.ExpectEnforce},
		} {
			if c.doc != c.reg {
				t.Errorf("%s/%s: catalog outcome %q, registry %q", a.Name, c.mode, c.doc, c.reg)
			}
		}
	}
	for name := range rows {
		if !registered[name] {
			t.Errorf("ADVERSARY.md: documents attack %q, which the registry does not define", name)
		}
	}
}
