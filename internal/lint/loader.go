package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the package's import path ("github.com/.../internal/obs").
	ImportPath string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's per-expression facts.
	Info *types.Info
}

// Module is the whole loaded module: every package, sharing one FileSet.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Fset positions every file in Packages.
	Fset *token.FileSet
	// Packages are the module's packages sorted by import path.
	Packages []*Package
}

// loader type-checks module packages from source using only the
// standard library: module-internal imports are parsed and checked
// recursively, everything else goes through the go/importer source
// importer (which compiles stdlib packages from $GOROOT/src).
type loader struct {
	fset      *token.FileSet
	moduleDir string
	modPath   string
	std       types.Importer
	mu        sync.Mutex
	pkgs      map[string]*Package // by import path
	loading   map[string]bool     // import-cycle guard
}

func newLoader(moduleDir, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:      fset,
		moduleDir: moduleDir,
		modPath:   modPath,
		std:       importer.ForCompiler(fset, "source", nil),
		pkgs:      make(map[string]*Package),
		loading:   make(map[string]bool),
	}
}

// Import implements types.Importer over both module-internal and
// external (stdlib) import paths.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.loadModulePackage(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) loadModulePackage(path string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	l.mu.Unlock()

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.moduleDir, filepath.FromSlash(rel))
	p, err := l.checkDir(dir, path, false)

	l.mu.Lock()
	delete(l.loading, path)
	if err == nil {
		l.pkgs[path] = p
	}
	l.mu.Unlock()
	return p, err
}

// checkDir parses and type-checks the package in dir. Test files are
// included only when withTests is set (used by fixture loads; the
// module walk excludes them so conventions for production code are not
// diluted by test idioms).
func (l *loader) checkDir(dir, importPath string, withTests bool) (*Package, error) {
	pkgs, err := parser.ParseDir(l.fset, dir, func(fi os.FileInfo) bool {
		return withTests || !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", dir, err)
	}
	// A directory holds at most one non-test package (plus possibly an
	// external _test package, which the filter above already dropped
	// unless withTests; fixtures use a single package per dir).
	var astPkg *ast.Package
	for name, p := range pkgs {
		if strings.HasSuffix(name, "_test") && len(pkgs) > 1 {
			continue
		}
		astPkg = p
		break
	}
	if astPkg == nil {
		return nil, fmt.Errorf("no Go package in %s", dir)
	}
	names := make([]string, 0, len(astPkg.Files))
	for name := range astPkg.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		files = append(files, astPkg.Files[name])
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// ModulePath reads the module path out of dir/go.mod.
func ModulePath(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", dir)
}

// Load parses and type-checks every package under moduleDir (skipping
// testdata, hidden directories, and _test.go files) and returns them
// sorted by import path. It is the entry point the mtastslint driver
// and the self-check test share.
func Load(moduleDir string) (*Module, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(abs)
	if err != nil {
		return nil, err
	}
	l := newLoader(abs, modPath)

	var dirs []string
	err = filepath.Walk(abs, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			base := filepath.Base(p)
			if p != abs && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := &Module{Path: modPath, Dir: abs, Fset: l.fset}
	for _, dir := range dirs {
		rel, err := filepath.Rel(abs, dir)
		if err != nil {
			return nil, err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.loadModulePackage(ip)
		if err != nil {
			return nil, err
		}
		m.Packages = append(m.Packages, p)
	}
	sort.Slice(m.Packages, func(i, j int) bool {
		return m.Packages[i].ImportPath < m.Packages[j].ImportPath
	})
	return m, nil
}
