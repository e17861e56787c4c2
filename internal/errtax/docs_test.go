package errtax

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docEntry is one parsed docs/ERRORS.md catalog row.
type docEntry struct {
	category  Category
	layer     Layer
	transient string // "yes", "no", or "varies"
	paper     string
	tlsrpt    string // "" where the row shows a dash
}

var (
	categoryHeading = regexp.MustCompile("^### .*\\(`([a-z_]+)`\\)")
	codeCell        = regexp.MustCompile("^`([a-z_]+)`$")
)

// parseErrorDocs extracts the code catalog from docs/ERRORS.md: section
// headings name the category, table rows carry code, layer, transient
// verdict, paper reference, and RFC 8460 result type.
func parseErrorDocs(t *testing.T, path string) map[Code]docEntry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	out := make(map[Code]docEntry)
	var current Category
	for ln, line := range strings.Split(string(data), "\n") {
		if m := categoryHeading.FindStringSubmatch(line); m != nil {
			current = Category(m[1])
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		// "| `code` | layer | transient | meaning | paper | tlsrpt |"
		// splits into 8 cells with empty first and last.
		if len(cells) != 8 {
			t.Errorf("%s:%d: catalog row has %d cells, want 6 columns", path, ln+1, len(cells)-2)
			continue
		}
		m := codeCell.FindStringSubmatch(strings.TrimSpace(cells[1]))
		if m == nil {
			t.Errorf("%s:%d: first column %q is not a backticked code", path, ln+1, cells[1])
			continue
		}
		code := Code(m[1])
		if current == "" {
			t.Errorf("%s:%d: code %q documented before any category heading", path, ln+1, code)
		}
		if _, dup := out[code]; dup {
			t.Errorf("%s:%d: code %q documented twice", path, ln+1, code)
		}
		out[code] = docEntry{
			category:  current,
			layer:     Layer(strings.TrimSpace(cells[2])),
			transient: strings.TrimSpace(cells[3]),
			paper:     strings.TrimSpace(cells[5]),
			tlsrpt:    strings.TrimSuffix(strings.TrimSpace(cells[6]), "—"),
		}
	}
	return out
}

// TestErrorDocsConsistency keeps docs/ERRORS.md and the code registry
// in lockstep, both directions — the same contract obsdocs enforces
// between metric call sites and docs/OBSERVABILITY.md.
func TestErrorDocsConsistency(t *testing.T) {
	docs := parseErrorDocs(t, "../../docs/ERRORS.md")
	if len(docs) == 0 {
		t.Fatal("no catalog rows parsed from docs/ERRORS.md")
	}

	for _, in := range Registry() {
		d, ok := docs[in.Code]
		if !ok {
			t.Errorf("code %q registered but missing from docs/ERRORS.md", in.Code)
			continue
		}
		if d.category != in.Category {
			t.Errorf("code %q documented under %q, registry says %q", in.Code, d.category, in.Category)
		}
		if d.layer != in.Layer {
			t.Errorf("code %q documented with layer %q, registry says %q", in.Code, d.layer, in.Layer)
		}
		want := "no"
		switch {
		case in.Varies:
			want = "varies"
		case in.Transient:
			want = "yes"
		}
		if d.transient != want {
			t.Errorf("code %q documented transient=%q, registry says %q", in.Code, d.transient, want)
		}
		if d.paper != in.Paper {
			t.Errorf("code %q documented with paper ref %q, registry says %q", in.Code, d.paper, in.Paper)
		}
		if d.tlsrpt != in.TLSRPT {
			t.Errorf("code %q documented with TLSRPT result %q, registry says %q", in.Code, d.tlsrpt, in.TLSRPT)
		}
	}

	for code := range docs {
		if _, ok := Lookup(code); !ok {
			t.Errorf("code %q documented in docs/ERRORS.md but not registered", code)
		}
	}
}
