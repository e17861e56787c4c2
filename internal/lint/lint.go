// Package lint is the project's static-analysis framework: a small
// analyzer API over the standard library's go/parser, go/ast and
// go/types (the module deliberately has zero external dependencies, so
// golang.org/x/tools is off the table), plus the module loader,
// suppression comments and finding baseline that the cmd/mtastslint
// driver composes.
//
// The analyzers enforce the scan pipeline's cross-cutting conventions —
// errors must not be silently dropped (errdrop), blocking network code
// must thread context.Context (ctxpass), metric names must match
// docs/OBSERVABILITY.md (obsnames), computed values must be used
// (deadvalue), retryable paths must use internal/retry backoff
// rather than raw time.Sleep (sleeploop), errors leaving the
// errtax-producing packages must carry a taxonomy code (codes), every
// package must carry a well-formed package doc comment (pkgdoc), and
// packages whose verdicts read internal/clock must not also read the
// wall clock (semtime).
//
// The concurrency pack guards the scan/sender/campaign stack's
// goroutine and lock discipline: no blocking operation under a held
// mutex (lockhold), every Lock released on every return/panic path
// (unlockpath), every internal/ goroutine stoppable through context,
// WaitGroup join or channel coupling (goroleak), and WaitGroup
// Add/Done used in the race-free pattern (wgpair).
//
// docs/LINT.md documents each
// analyzer, the //lint:ignore suppression syntax, and the baseline
// workflow.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one reported convention violation.
type Finding struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string `json:"analyzer"`
	// File is the source file path relative to the module root.
	File string `json:"file"`
	// Line and Col are the 1-based source position.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the violation.
	Message string `json:"message"`
}

// Key is the baseline identity of a finding: analyzer, file and message
// but not the line, so unrelated edits above a grandfathered site do not
// resurrect it.
func (f Finding) Key() string { return f.Analyzer + "\x00" + f.File + "\x00" + f.Message }

// String formats the finding the way compilers do: file:line:col: message [analyzer].
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Analyzer is one named check. Run is invoked once per package and
// reports through the pass.
type Analyzer struct {
	// Name identifies the analyzer in findings, suppression comments and
	// baseline entries.
	Name string
	// Doc is a one-line description (the driver's -list output).
	Doc string
	// Run inspects pass.Pkg and calls pass.Report for each violation.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Module is the whole loaded module (for cross-package facts and the
	// module root, against which finding paths are relativized).
	Module *Module
	// Pkg is the package under analysis.
	Pkg *Package

	findings *[]Finding
	ignores  ignoreIndex
}

// Fset returns the position set shared by every file in the module.
func (p *Pass) Fset() *token.FileSet { return p.Module.Fset }

// Report records a finding at pos unless a //lint:ignore comment
// suppresses this analyzer on that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	if p.ignores.suppressed(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	file := position.Filename
	if rel, err := filepath.Rel(p.Module.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file (fixture loads
// include them; convention analyzers exempt test code).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Module.Fset.Position(pos).Filename, "_test.go")
}

// Run applies every analyzer to every package of the module and returns
// the findings sorted by file, line, column and analyzer. Suppression
// comments (//lint:ignore) are honored; the baseline is the caller's
// concern (see Baseline.Filter).
func Run(m *Module, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range m.Packages {
		ignores := buildIgnoreIndex(m.Fset, pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Module:   m,
				Pkg:      pkg,
				findings: &findings,
				ignores:  ignores,
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// All returns every analyzer in the suite, in stable order. docsPath
// locates docs/OBSERVABILITY.md for obsnames; empty means the module
// default.
func All(docsPath string) []*Analyzer {
	return []*Analyzer{
		ErrDrop(),
		CtxPass(),
		ObsNames(docsPath),
		DeadValue(),
		SleepLoop(),
		SemTime(),
		Codes(),
		PkgDoc(),
		LockHold(),
		UnlockPath(),
		GoroLeak(),
		WGPair(),
	}
}

// inspect walks every file of the pass's package in source order,
// calling fn for each node; fn returning false prunes the subtree.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
