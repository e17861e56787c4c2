package resolver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestConstructionSites names every resolver.Client the module builds
// outside its tests, and which of the two settings it runs with. The
// scanner's clients carry each socket across ScannerQueriesPerSocket
// queries; every sender-side client keeps the default, one socket and
// source port per query, because its answers decide whether mail goes
// out securely (doc.go). A new construction fails here until it is
// listed with its side.
func TestConstructionSites(t *testing.T) {
	want := map[string]bool{ // "file:function" → carries sockets across queries
		"internal/scansvc/runner.go:Build":              true,
		"mtastsrepro.go:CheckDomain":                    true,
		"internal/experiments/robustness.go:scan":       true,
		"internal/experiments/adversary.go:outboundFor": false,
		"cmd/mtasts-send/main.go:run":                   false,
		"examples/danefirst/main.go:main":               false,
		"examples/sendermta/main.go:main":               false,
		// The per-layer ledger's resolver rows time the default client.
		"bench/ledger.go:socketLedger": false,
	}
	got := map[string]bool{}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch {
			case rel != "." && strings.HasPrefix(d.Name(), "."), d.Name() == "testdata",
				rel == "internal/resolver", rel == "bench/out":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !constructsClient(fn.Body) {
				continue
			}
			got[rel+":"+fn.Name.Name] = setsScannerSetting(fn.Body)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, reuse := range got {
		w, listed := want[site]
		switch {
		case !listed:
			t.Errorf("%s builds a resolver.Client (carries sockets: %v) that this test does not list", site, reuse)
		case reuse != w:
			t.Errorf("%s: carries sockets across queries = %v, want %v", site, reuse, w)
		}
	}
	for site := range want {
		if _, ok := got[site]; !ok {
			t.Errorf("%s is listed but builds no resolver.Client any more", site)
		}
	}
}

// isResolver reports whether e is the selector resolver.<name>.
func isResolver(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "resolver" && sel.Sel.Name == name
}

// constructsClient reports whether body calls resolver.New or writes a
// resolver.Client literal.
func constructsClient(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			found = found || isResolver(n.Fun, "New")
		case *ast.CompositeLit:
			found = found || isResolver(n.Type, "Client")
		}
		return !found
	})
	return found
}

// setsScannerSetting reports whether body sets a QueriesPerSocket field
// to resolver.ScannerQueriesPerSocket, by assignment or in a literal.
func setsScannerSetting(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "QueriesPerSocket" && i < len(n.Rhs) {
					found = found || isResolver(n.Rhs[i], "ScannerQueriesPerSocket")
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "QueriesPerSocket" {
				found = found || isResolver(n.Value, "ScannerQueriesPerSocket")
			}
		}
		return !found
	})
	return found
}
