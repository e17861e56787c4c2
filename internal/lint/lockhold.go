package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockHold reports potentially blocking operations executed while a
// sync.Mutex / sync.RWMutex is held in the same function: channel sends
// and receives, blocking selects, time.Sleep and internal/clock Sleep,
// WaitGroup/Cond waits, singleflight joins (sf.Group.Do, and
// sf.Cache.Do, which waits on the sync.Once of a key another caller is
// computing), internal/store I/O, and stdlib network I/O. A goroutine
// that blocks under a lock extends the critical section to the
// duration of the blocked operation — at scan concurrency that turns
// one slow fetch into a stalled worker pool, and a channel wait under a
// lock its peer needs is a deadlock.
// Same-package helpers are followed transitively, so a Locked-suffixed
// helper that hides a store write is still caught at the locked call
// site.
//
// internal/store is exempt: its mutex exists to serialize segment file
// I/O, which is the package's entire job.
func LockHold() *Analyzer {
	a := &Analyzer{
		Name: "lockhold",
		Doc:  "flags blocking operations (channels, sleeps, store/network I/O, singleflight) while a mutex is held",
	}
	a.Run = func(pass *Pass) {
		if !isInternalPkg(pass.Pkg.ImportPath) || strings.Contains(pass.Pkg.ImportPath, "/internal/store") {
			return
		}
		summaries := newBlockingSummaries(pass)
		hooks := lockHooks{
			blockingCall: func(call *ast.CallExpr) string {
				return classifyBlockingCall(pass, call, summaries)
			},
		}
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
					continue
				}
				hooks.onBlocking = func(pos token.Pos, desc string, held []*heldLock) {
					pass.Reportf(pos, "%s while holding %s; move the blocking operation outside the critical section",
						desc, heldLockNames(held))
				}
				walkLockFlow(pass.Pkg.Info, fd.Body, hooks)
			}
		}
	}
	return a
}

// heldLockNames renders the held set for messages: "c.mu" or
// "c.mu (RLock)", comma-joined when nested.
func heldLockNames(held []*heldLock) string {
	parts := make([]string, 0, len(held))
	for _, l := range held {
		name := l.expr
		if l.read {
			name += " (RLock)"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, ", ")
}
