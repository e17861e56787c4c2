package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// semtimeFuncs are the package time functions that read the wall clock
// or wait on it.
var semtimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// SemTime reports wall-clock reads and timer waits in the packages
// whose verdicts read internal/clock — every internal/ package that
// imports it. There a time.Now beside clock.From(ctx) is a second answer
// to "what time is it": a test that sets a clock would judge half the
// verdict at the fake instant and half at the wall clock. Measurement
// (latency histograms) and socket deadlines, which the kernel judges by
// wall time, stay on package time with a //lint:ignore naming why.
// References count, not only calls, so `now: time.Now` is caught too.
func SemTime() *Analyzer {
	a := &Analyzer{
		Name: "semtime",
		Doc:  "flags wall-clock reads and timer waits in packages that read internal/clock",
	}
	a.Run = func(pass *Pass) {
		if !isInternalPkg(pass.Pkg.ImportPath) || !importsClock(pass) {
			return
		}
		info := pass.Pkg.Info
		pass.inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !semtimeFuncs[sel.Sel.Name] || pass.InTestFile(sel.Pos()) {
				return true
			}
			// Package functions only: time.Time's After is a comparison.
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && funcPkgPath(fn) == "time" && recvTypeString(fn) == "" {
				pass.Reportf(sel.Pos(), "time.%s in a package whose verdicts read internal/clock; use clock.From(ctx)", sel.Sel.Name)
			}
			return true
		})
	}
	return a
}

// importsClock reports whether a non-test file of the package imports
// internal/clock (the clock package itself is the one place the wall
// clock is read, so it never imports itself).
func importsClock(pass *Pass) bool {
	for _, file := range pass.Pkg.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && strings.HasSuffix(path, "/internal/clock") {
				return true
			}
		}
	}
	return false
}
