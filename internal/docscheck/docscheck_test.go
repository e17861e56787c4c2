// Package docscheck keeps the CLI documentation honest: it parses the
// flag definitions out of each command's main.go with go/parser and
// cross-checks them against README.md and docs/*.md. Three contracts
// are enforced: every flag of the documented commands (mtasts-scan,
// reproduce, mtasts-campaign, mtasts-send, mtasts-serve) appears
// somewhere in the docs; every backticked `-flag` token in the docs
// names a flag that still exists (no stale references); and the flag
// tables in docs/CAMPAIGN.md, docs/SENDER.md and docs/SERVICE.md match
// their commands exactly, both ways (servicedocs_test.go also locks the
// SERVICE.md endpoint table to scansvc.Endpoints). A fourth gate (lintdocs_test.go) keeps docs/LINT.md's
// analyzer table in lockstep with the registered mtastslint suite.
// The package is test-only on purpose — it ships no code, only the
// gate.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const root = "../.."

// flagDefFuncs are the flag.FlagSet methods (and flag package
// functions) whose first argument is the flag name.
var flagDefFuncs = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Uint": true,
	"Uint64": true, "Float64": true, "Bool": true, "Duration": true,
}

// commandFlags parses cmd/<name>/main.go and returns the flag names it
// defines, grouped by subcommand. Flags registered on the global
// flag.CommandLine set land under the "" key; flags registered on a
// set created with flag.NewFlagSet("sub", ...) land under "sub",
// resolved per enclosing function so every cmdFoo can call its set fs.
func commandFlags(t *testing.T, name string) map[string]map[string]bool {
	t.Helper()
	path := filepath.Join(root, "cmd", name, "main.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	out := map[string]map[string]bool{}
	add := func(sub, flagName string) {
		if out[sub] == nil {
			out[sub] = map[string]bool{}
		}
		out[sub][flagName] = true
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		// var name -> subcommand, for flag sets created in this function.
		sets := map[string]string{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if sub, ok := newFlagSetName(as.Rhs[0]); ok {
					if id, ok := as.Lhs[0].(*ast.Ident); ok {
						sets[id.Name] = sub
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefFuncs[sel.Sel.Name] {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			flagName, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if recv.Name == "flag" {
				add("", flagName)
			} else if sub, ok := sets[recv.Name]; ok {
				add(sub, flagName)
			}
			return true
		})
	}
	return out
}

func newFlagSetName(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewFlagSet" {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// docsCorpus returns README.md plus every docs/*.md concatenated, and
// the list of (name, text) pairs for per-file reporting.
func docsCorpus(t *testing.T) []struct{ name, text string } {
	t.Helper()
	var corpus []struct{ name, text string }
	read := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		corpus = append(corpus, struct{ name, text string }{filepath.Base(path), string(b)})
	}
	read(filepath.Join(root, "README.md"))
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		t.Fatalf("read docs dir: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			read(filepath.Join(root, "docs", e.Name()))
		}
	}
	return corpus
}

func allFlags(t *testing.T) map[string]bool {
	t.Helper()
	union := map[string]bool{}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatalf("read cmd dir: %v", err)
	}
	for _, e := range cmds {
		for _, set := range commandFlags(t, e.Name()) {
			for name := range set {
				union[name] = true
			}
		}
	}
	return union
}

// tableRows reads doc (a path under the repo root), keeps only its
// "## section" when section is set, and returns the submatches of every
// line that matches row, in document order. No match fails the test: a
// table that parses to nothing is format drift, not an empty contract.
func tableRows(t *testing.T, doc, section string, row *regexp.Regexp) [][]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		t.Fatalf("read %s: %v", doc, err)
	}
	var rows [][]string
	in := section == ""
	for _, line := range strings.Split(string(b), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok && section != "" {
			in = h == section
			continue
		}
		if m := row.FindStringSubmatch(line); in && m != nil {
			rows = append(rows, m)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no line matches %s (format drift?)", doc, row)
	}
	return rows
}

// flagRowRe matches a flag table row and captures the flag's name.
var flagRowRe = regexp.MustCompile("^\\| `-([a-z][a-z0-9-]*)` \\|")

// TestDocumentedCommandFlagsCovered requires every flag of the three
// commands whose operation the docs walk through to be mentioned, as a
// -name token, somewhere in README.md or docs/.
func TestDocumentedCommandFlagsCovered(t *testing.T) {
	corpus := docsCorpus(t)
	var all strings.Builder
	for _, d := range corpus {
		all.WriteString(d.text)
		all.WriteByte('\n')
	}
	text := all.String()
	for _, cmd := range []string{"mtasts-scan", "reproduce", "mtasts-campaign", "mtasts-send", "mtasts-serve"} {
		for sub, set := range commandFlags(t, cmd) {
			for name := range set {
				re := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
				if !re.MatchString(text) {
					t.Errorf("%s %s: flag -%s is not documented in README.md or docs/", cmd, sub, name)
				}
			}
		}
	}
}

// TestNoStaleFlagTokens requires every fully-backticked `-flag` token
// in the docs to name a flag some command still defines. Tokens ending
// in '-' are backtick-adjacency artifacts, not flags, and go-toolchain
// flags the docs legitimately mention are allowlisted.
func TestNoStaleFlagTokens(t *testing.T) {
	known := allFlags(t)
	allow := map[string]bool{
		"race":     true, // go test -race
		"bench":    true, // go test -bench
		"benchmem": true, // go test -benchmem
	}
	re := regexp.MustCompile("`-([a-z][a-z0-9-]*[a-z0-9])`")
	for _, d := range docsCorpus(t) {
		for _, m := range re.FindAllStringSubmatch(d.text, -1) {
			name := m[1]
			if !known[name] && !allow[name] {
				t.Errorf("%s: references flag `-%s`, which no command defines", d.name, name)
			}
		}
	}
}

// TestCampaignRunbookTablesExact pins the per-subcommand flag tables in
// docs/CAMPAIGN.md to cmd/mtasts-campaign exactly: every defined flag
// has a table row, every table row names a defined flag.
func TestCampaignRunbookTablesExact(t *testing.T) {
	defined := commandFlags(t, "mtasts-campaign")
	// A "`mtasts-campaign sub`" line opens the table of sub's flags.
	lineRe := regexp.MustCompile("^(?:`mtasts-campaign ([a-z]+)`|\\| `-([a-z][a-z0-9-]*)` \\|)")
	documented := map[string]map[string]bool{}
	sub := ""
	for _, m := range tableRows(t, "docs/CAMPAIGN.md", "Runbook: cmd/mtasts-campaign", lineRe) {
		if m[1] != "" {
			sub = m[1]
			if sub == "resume" { // alias of run, same flag set
				sub = "run"
			}
			continue
		}
		if sub != "" {
			if documented[sub] == nil {
				documented[sub] = map[string]bool{}
			}
			documented[sub][m[2]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("CAMPAIGN.md: no flag tables found (format drift?)")
	}
	for sub, set := range defined {
		if sub == "" {
			continue // no global flags expected; rows only document subcommands
		}
		for name := range set {
			if !documented[sub][name] {
				t.Errorf("mtasts-campaign %s: flag -%s has no table row in CAMPAIGN.md", sub, name)
			}
		}
		for name := range documented[sub] {
			if !set[name] {
				t.Errorf("CAMPAIGN.md: %s table documents -%s, which the subcommand does not define", sub, name)
			}
		}
	}
	// Every subcommand with a table must exist in the binary too.
	var missing []string
	for sub := range documented {
		if defined[sub] == nil {
			missing = append(missing, sub)
		}
	}
	sort.Strings(missing)
	for _, sub := range missing {
		t.Errorf("CAMPAIGN.md: documents subcommand %q, which mtasts-campaign does not define", sub)
	}
}

// TestSenderRunbookTableExact pins the flag table in docs/SENDER.md to
// cmd/mtasts-send exactly: every flag the command defines has a table
// row, every table row names a defined flag. mtasts-send registers on
// the global flag set, so its flags live under the "" subcommand key.
func TestSenderRunbookTableExact(t *testing.T) {
	defined := commandFlags(t, "mtasts-send")[""]
	if len(defined) == 0 {
		t.Fatal("mtasts-send: no global flags parsed (format drift?)")
	}
	documented := map[string]bool{}
	for _, m := range tableRows(t, "docs/SENDER.md", "`mtasts-send` flags", flagRowRe) {
		documented[m[1]] = true
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("mtasts-send: flag -%s has no table row in SENDER.md", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("SENDER.md: table documents -%s, which mtasts-send does not define", name)
		}
	}
}
