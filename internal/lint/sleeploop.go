package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SleepLoop reports raw time.Sleep calls in retryable paths of
// internal/ library code: a Sleep inside a loop is a hand-rolled retry
// that should be retry.Policy.Do (budgeted, jittered, context-aware),
// and a Sleep inside a function that received a context.Context ignores
// cancellation — a canceled scan would sit out the full delay. An
// internal/clock Sleep honours its context, but in a loop it is the
// same hand-rolled retry. The retry package itself (which implements
// the sanctioned backoff wait) is exempt.
func SleepLoop() *Analyzer {
	a := &Analyzer{
		Name: "sleeploop",
		Doc:  "flags raw time.Sleep (and clock Sleep in loops) in internal/ code",
	}
	a.Run = func(pass *Pass) {
		if !isInternalPkg(pass.Pkg.ImportPath) || strings.HasSuffix(pass.Pkg.ImportPath, "/internal/retry") {
			return
		}
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
					continue
				}
				hasCtx := false
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					hasCtx = hasContextParam(obj.Type().(*types.Signature))
				}
				sleepWalk(pass, fd.Body, 0, hasCtx)
			}
		}
	}
	return a
}

// sleepWalk scans body for time.Sleep and internal/clock Sleep, tracking
// enclosing-loop depth.
// Function literals inherit both the loop depth and the context reach
// of their definition site: a closure built inside a retry loop (or a
// context-aware function) runs under the same obligations.
func sleepWalk(pass *Pass, body ast.Node, loopDepth int, hasCtx bool) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			sleepWalk(pass, n.Body, loopDepth+1, hasCtx)
			return false
		case *ast.RangeStmt:
			sleepWalk(pass, n.Body, loopDepth+1, hasCtx)
			return false
		case *ast.FuncLit:
			litCtx := hasCtx
			if tv, ok := info.Types[n]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok && hasContextParam(sig) {
					litCtx = true
				}
			}
			sleepWalk(pass, n.Body, loopDepth, litCtx)
			return false
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil || fn.Name() != "Sleep" {
				return true
			}
			if strings.HasSuffix(funcPkgPath(fn), "/internal/clock") {
				if loopDepth > 0 {
					pass.Reportf(n.Pos(), "%s in a loop; use retry.Policy backoff (internal/retry)", funcName(fn))
				}
				return true
			}
			if funcPkgPath(fn) != "time" || recvTypeString(fn) != "" {
				return true
			}
			switch {
			case loopDepth > 0:
				pass.Reportf(n.Pos(), "raw time.Sleep in a loop; use retry.Policy backoff (internal/retry)")
			case hasCtx:
				pass.Reportf(n.Pos(), "time.Sleep ignores the function's context.Context; use a context-aware wait")
			}
		}
		return true
	})
}
