package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockflow is the shared machinery of the concurrency analyzers
// (lockhold, unlockpath): a statement-order walker that tracks which
// sync.Mutex / sync.RWMutex locks are held at each point of a function
// body, and a classifier for operations that can block the holder.
//
// The analysis is intra-procedural and deliberately conservative about
// control flow: branch bodies are walked with a copy of the held set,
// and after a branch the lock is considered still held only if every
// non-terminating path kept it. Function literals are independent
// scopes — they run on their own goroutine or at defer time, not at
// their definition point — so each is walked with a fresh held set.

// heldLock is one lock the walker currently believes is held.
type heldLock struct {
	key      string    // identity: receiver expression text + lock mode
	expr     string    // receiver expression as written ("c.mu")
	read     bool      // RLock rather than Lock
	pos      token.Pos // the acquiring call
	deferred bool      // a matching defer Unlock/RUnlock was seen
}

// lockState maps heldLock.key to the lock. States are small (almost
// always 0 or 1 entries), so copying per branch is cheap.
type lockState map[string]*heldLock

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		cp := *v
		out[k] = &cp
	}
	return out
}

// merge keeps only locks held on both non-terminating paths; a lock is
// deferred-released if either path saw the defer.
func mergeLockStates(a, b lockState) lockState {
	out := make(lockState)
	for k, la := range a {
		if lb, ok := b[k]; ok {
			cp := *la
			cp.deferred = la.deferred || lb.deferred
			out[k] = &cp
		}
	}
	return out
}

// undeferred returns the held locks with no deferred release, in
// acquisition order (by position).
func undeferred(st lockState) []*heldLock {
	var out []*heldLock
	for _, l := range st {
		if !l.deferred {
			out = append(out, l)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].pos < out[j-1].pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// lockCall decodes call as a sync lock-discipline method — Lock, RLock,
// Unlock, RUnlock on a sync.Mutex, sync.RWMutex, sync.RWMutex.RLocker
// or sync.Locker — returning the receiver expression and method name.
func lockCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, fn.Name(), true
	}
	return nil, "", false
}

// lockKeyFor renders the identity of a lock receiver. Read and write
// halves of an RWMutex are tracked separately so an RLock answered by
// Unlock (or vice versa) does not silently balance.
func lockKeyFor(recv ast.Expr, read bool) string {
	key := types.ExprString(recv)
	if read {
		key += "\x00r"
	}
	return key
}

// lockHooks receives the walker's observations.
type lockHooks struct {
	// onExit fires at a return, a panic call, or the end of the body
	// while locks without a deferred release are held. kind is "return",
	// "panic" or "end".
	onExit func(pos token.Pos, kind string, held []*heldLock)
	// onBlocking fires for a potentially blocking operation executed
	// while any lock is held. desc names the operation.
	onBlocking func(pos token.Pos, desc string, held []*heldLock)
	// onRelock fires when a write lock is acquired while the walker
	// already believes it is held (self-deadlock).
	onRelock func(pos token.Pos, l *heldLock)
	// blockingCall classifies a call as blocking (non-empty description)
	// or not; nil disables call classification.
	blockingCall func(call *ast.CallExpr) string
}

// lockWalker walks one function body.
type lockWalker struct {
	info  *types.Info
	hooks lockHooks
	// nested collects function literals encountered during the walk;
	// the caller re-walks each with a fresh state.
	nested []*ast.FuncLit
}

// walkBody analyzes one function or function-literal body.
func walkLockFlow(info *types.Info, body *ast.BlockStmt, hooks lockHooks) {
	w := &lockWalker{info: info, hooks: hooks}
	st, terminated := w.walkStmts(body.List, make(lockState))
	if !terminated {
		if held := undeferred(st); len(held) > 0 && hooks.onExit != nil {
			hooks.onExit(body.Rbrace, "end", held)
		}
	}
	for i := 0; i < len(w.nested); i++ {
		inner := &lockWalker{info: info, hooks: hooks}
		ist, iterm := inner.walkStmts(w.nested[i].Body.List, make(lockState))
		if !iterm {
			if held := undeferred(ist); len(held) > 0 && hooks.onExit != nil {
				hooks.onExit(w.nested[i].Body.Rbrace, "end", held)
			}
		}
		w.nested = append(w.nested, inner.nested...)
	}
}

// walkStmts processes stmts in order against st, returning the state
// after the last statement and whether every path through the list
// terminates (returns or panics).
func (w *lockWalker) walkStmts(stmts []ast.Stmt, st lockState) (lockState, bool) {
	for _, stmt := range stmts {
		var terminated bool
		st, terminated = w.walkStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, st lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, method, ok := lockCall(w.info, call); ok {
				return w.applyLockCall(st, call, recv, method), false
			}
			if isPanicCall(w.info, call) {
				w.scanBlocking(s, st)
				if held := undeferred(st); len(held) > 0 && w.hooks.onExit != nil {
					w.hooks.onExit(call.Pos(), "panic", held)
				}
				return st, true
			}
		}
		w.scanBlocking(s, st)
		return st, false
	case *ast.DeferStmt:
		if recv, method, ok := lockCall(w.info, s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			key := lockKeyFor(recv, method == "RUnlock")
			if l, held := st[key]; held {
				l.deferred = true
			}
		}
		w.collectFuncLits(s.Call)
		return st, false
	case *ast.GoStmt:
		w.collectFuncLits(s.Call)
		return st, false
	case *ast.ReturnStmt:
		w.scanBlocking(s, st)
		if held := undeferred(st); len(held) > 0 && w.hooks.onExit != nil {
			w.hooks.onExit(s.Pos(), "return", held)
		}
		return st, true
	case *ast.SendStmt:
		if len(st) > 0 && w.hooks.onBlocking != nil {
			w.hooks.onBlocking(s.Arrow, "channel send", undeferredOrAll(st))
		}
		w.scanBlocking(s.Value, st)
		return st, false
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		w.scanBlocking(s.Cond, st)
		thenSt, thenTerm := w.walkStmts(s.Body.List, st.clone())
		elseSt, elseTerm := st.clone(), false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseSt, elseTerm = w.walkStmts(e.List, st.clone())
		case ast.Stmt:
			elseSt, elseTerm = w.walkStmt(e, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeLockStates(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanBlocking(s.Cond, st)
		}
		bodySt, _ := w.walkStmts(s.Body.List, st.clone())
		return mergeLockStates(st, bodySt), false
	case *ast.RangeStmt:
		if len(st) > 0 && w.hooks.onBlocking != nil {
			if tv, ok := w.info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.hooks.onBlocking(s.For, "range over a channel", undeferredOrAll(st))
				}
			}
		}
		w.scanBlocking(s.X, st)
		bodySt, _ := w.walkStmts(s.Body.List, st.clone())
		return mergeLockStates(st, bodySt), false
	case *ast.SelectStmt:
		blocking := true
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				blocking = false // has a default: non-blocking poll
			}
		}
		if blocking && len(st) > 0 && w.hooks.onBlocking != nil {
			w.hooks.onBlocking(s.Select, "blocking select", undeferredOrAll(st))
		}
		// Each comm clause proceeds from the pre-select state.
		merged, allTerm := lockState(nil), len(s.Body.List) > 0
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseSt, caseTerm := w.walkStmts(cc.Body, st.clone())
			if caseTerm {
				continue
			}
			allTerm = false
			if merged == nil {
				merged = caseSt
			} else {
				merged = mergeLockStates(merged, caseSt)
			}
		}
		if allTerm {
			return st, true
		}
		if merged == nil {
			merged = st
		}
		return merged, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanBlocking(s.Tag, st)
		}
		return w.walkCaseBodies(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		return w.walkCaseBodies(s.Body, st)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt:
		w.scanBlocking(s, st)
		return st, false
	default:
		return st, false
	}
}

// walkCaseBodies merges the case clauses of a switch. A switch without
// a default may fall through entirely, so the pre-switch state is one
// of the merged paths then.
func (w *lockWalker) walkCaseBodies(body *ast.BlockStmt, st lockState) (lockState, bool) {
	hasDefault := false
	merged, allTerm := lockState(nil), true
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.scanBlocking(e, st)
		}
		caseSt, caseTerm := w.walkStmts(cc.Body, st.clone())
		if caseTerm {
			continue
		}
		allTerm = false
		if merged == nil {
			merged = caseSt
		} else {
			merged = mergeLockStates(merged, caseSt)
		}
	}
	if allTerm && hasDefault && len(body.List) > 0 {
		return st, true
	}
	if merged == nil {
		merged = st
	}
	if !hasDefault {
		merged = mergeLockStates(merged, st)
	}
	return merged, false
}

// applyLockCall updates the state for a Lock/RLock/Unlock/RUnlock call.
func (w *lockWalker) applyLockCall(st lockState, call *ast.CallExpr, recv ast.Expr, method string) lockState {
	read := method == "RLock" || method == "RUnlock"
	key := lockKeyFor(recv, read)
	switch method {
	case "Lock", "RLock":
		if prev, held := st[key]; held && !read && w.hooks.onRelock != nil {
			w.hooks.onRelock(call.Pos(), prev)
		}
		st[key] = &heldLock{key: key, expr: types.ExprString(recv), read: read, pos: call.Pos()}
	case "Unlock", "RUnlock":
		delete(st, key)
	}
	return st
}

// scanBlocking inspects the expressions of a simple statement (or a
// bare expression) for operations that can block while locks are held.
// Function literals are skipped — they do not run at definition — and
// are queued for an independent walk.
func (w *lockWalker) scanBlocking(node ast.Node, st lockState) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.nested = append(w.nested, n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(st) > 0 && w.hooks.onBlocking != nil {
				w.hooks.onBlocking(n.OpPos, "channel receive", undeferredOrAll(st))
			}
		case *ast.SendStmt:
			if len(st) > 0 && w.hooks.onBlocking != nil {
				w.hooks.onBlocking(n.Arrow, "channel send", undeferredOrAll(st))
			}
		case *ast.CallExpr:
			if _, _, ok := lockCall(w.info, n); ok {
				return true // lock discipline itself is not a blocking op here
			}
			if len(st) == 0 || w.hooks.blockingCall == nil || w.hooks.onBlocking == nil {
				return true
			}
			if desc := w.hooks.blockingCall(n); desc != "" {
				w.hooks.onBlocking(n.Pos(), desc, undeferredOrAll(st))
			}
		}
		return true
	})
}

// collectFuncLits queues literal bodies reachable from a call (defer /
// go statements) for an independent walk.
func (w *lockWalker) collectFuncLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.nested = append(w.nested, lit)
			return false
		}
		return true
	})
}

// undeferredOrAll prefers locks without a deferred release for the
// report, but a blocking op under a defer-released lock still blocks
// other goroutines, so fall back to everything held.
func undeferredOrAll(st lockState) []*heldLock {
	if out := undeferred(st); len(out) > 0 {
		return out
	}
	out := make([]*heldLock, 0, len(st))
	for _, l := range st {
		out = append(out, l)
	}
	return out
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// ---- blocking-call classification (lockhold) ----

// blockingNetFuncs are stdlib networking entry points that block on the
// wire; keyed by package path then function/method name.
var blockingNetFuncs = map[string]map[string]bool{
	"net": {
		"Dial": true, "DialContext": true, "DialTimeout": true, "DialUDP": true, "DialTCP": true,
		"Listen": true, "ListenTCP": true, "ListenUDP": true, "ListenPacket": true,
		"Accept": true, "AcceptTCP": true,
		"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
		"ReadFromUDP": true, "WriteToUDP": true,
		"LookupHost": true, "LookupIP": true, "LookupMX": true, "LookupTXT": true, "LookupCNAME": true,
	},
	"net/http": {
		"Get": true, "Post": true, "Head": true, "PostForm": true, "Do": true,
		"Serve": true, "ListenAndServe": true, "ListenAndServeTLS": true, "Shutdown": true,
	},
	"crypto/tls": {
		"Dial": true, "DialWithDialer": true, "Handshake": true, "HandshakeContext": true,
		"Read": true, "Write": true,
	},
	"net/smtp": {
		"Dial": true, "SendMail": true,
	},
}

// classifyBlockingCall names the way a call can block while a lock is
// held, or returns "" for calls considered non-blocking. summaries
// resolves same-package callees transitively (nil disables that).
func classifyBlockingCall(pass *Pass, call *ast.CallExpr, summaries *blockingSummaries) string {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil {
		return ""
	}
	pkgPath := funcPkgPath(fn)
	name := fn.Name()
	switch {
	case pkgPath == "time" && name == "Sleep" && recvTypeString(fn) == "":
		return "time.Sleep"
	case pkgPath == "sync" && name == "Wait":
		return funcName(fn) // WaitGroup.Wait / Cond.Wait
	case strings.HasSuffix(pkgPath, "/internal/clock") && name == "Sleep":
		return funcName(fn) + " (clock wait)"
	case strings.HasSuffix(pkgPath, "/internal/sf") && name == "Do":
		return funcName(fn) + " (singleflight join)"
	case strings.HasSuffix(pkgPath, "/internal/store") && recvTypeString(fn) != "" && storeIOMethods[name]:
		return funcName(fn) + " (store I/O)"
	}
	if m, ok := blockingNetFuncs[pkgPath]; ok && m[name] {
		return funcName(fn) + " (network I/O)"
	}
	if summaries != nil && pkgPath == pass.Pkg.ImportPath {
		if desc := summaries.blocks(fn); desc != "" {
			return funcName(fn) + ", which reaches " + desc
		}
	}
	return ""
}

// storeIOMethods are the internal/store methods that hit the disk (or
// the lock serializing it).
var storeIOMethods = map[string]bool{
	"Put": true, "Get": true, "Delete": true, "Sync": true, "Scan": true, "Close": true,
}

// blockingSummaries lazily answers "does calling this same-package
// function reach a blocking operation?", following private helpers
// transitively with a cycle guard. Nested function literals are not
// followed (they run on their own schedule).
type blockingSummaries struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]string
	stack map[*types.Func]bool
}

func newBlockingSummaries(pass *Pass) *blockingSummaries {
	s := &blockingSummaries{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		memo:  make(map[*types.Func]string),
		stack: make(map[*types.Func]bool),
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					s.decls[obj] = fd
				}
			}
		}
	}
	return s
}

// blocks returns a description of the first blocking operation fn's
// body (transitively) reaches, or "".
func (s *blockingSummaries) blocks(fn *types.Func) string {
	if desc, ok := s.memo[fn]; ok {
		return desc
	}
	fd, ok := s.decls[fn]
	if !ok || s.stack[fn] {
		return ""
	}
	s.stack[fn] = true
	defer delete(s.stack, fn)
	desc := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			desc = "a channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				desc = "a channel receive"
			}
		case *ast.SelectStmt:
			blocking := true
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					blocking = false
				}
			}
			if blocking {
				desc = "a blocking select"
			}
		case *ast.RangeStmt:
			if tv, ok := s.pass.Pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					desc = "a channel range"
				}
			}
		case *ast.CallExpr:
			if _, _, ok := lockCall(s.pass.Pkg.Info, n); ok {
				return true
			}
			if d := classifyBlockingCall(s.pass, n, s); d != "" {
				desc = d
			}
		}
		return desc == ""
	})
	s.memo[fn] = desc
	return desc
}
