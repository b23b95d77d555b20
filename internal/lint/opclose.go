package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"filterjoin/internal/lint/analysis"
)

// Opclose enforces the Volcano iterator lifecycle contract on
// exec.Operator values. Three rules:
//
//  1. A Close() error must never be silently dropped: a bare
//     `op.Close(ctx)` statement, a `defer op.Close(ctx)`, and
//     `_ = op.Close(ctx)` are all flagged. Close is where operators
//     surface deferred resource errors; dropping it hides them.
//  2. A local variable (or parameter) on which Open is called must be
//     Closed on every path that leaves the function — including error
//     paths — unless a deferred Close covers them. The walker
//     understands the `if err := op.Open(ctx); err != nil { return }`
//     guard (a failed Open needs no Close) and `return n, op.Close(ctx)`
//     tails. Variables that escape (passed on, returned, stored,
//     captured) are not tracked.
//  3. A field the operator type Opens in any of its methods
//     (j.Inner.Open in a row step, say) must be Closed by some method of the
//     same type, because the child's lifecycle spans the parent's.
var Opclose = &analysis.Analyzer{
	Name: "opclose",
	Doc:  "require Operator Open/Close pairing on all paths and forbid dropped Close errors",
	Run:  runOpclose,
}

func runOpclose(pass *analysis.Pass) error {
	iface := pass.NamedInterface(execPkgPath, "Operator")
	if iface == nil {
		return nil
	}
	oc := &opcloseCheck{pass: pass, iface: iface}
	oc.droppedCloseErrors()
	oc.localPairing()
	oc.fieldPairing()
	return nil
}

type opcloseCheck struct {
	pass  *analysis.Pass
	iface *types.Interface
}

// operatorMethodCall reports whether call invokes the named method on
// a value whose type satisfies exec.Operator, returning the receiver
// expression.
func (oc *opcloseCheck) operatorMethodCall(call *ast.CallExpr, method string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	tv, ok := oc.pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil, false
	}
	if !analysis.Implements(tv.Type, oc.iface) {
		return nil, false
	}
	return sel.X, true
}

// --- Rule 1: dropped Close errors -----------------------------------

func (oc *opcloseCheck) droppedCloseErrors() {
	oc.pass.Inspect(func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if _, isClose := oc.operatorMethodCall(call, "Close"); isClose {
					oc.pass.Reportf(call.Pos(), "Close error silently dropped; on error paths join it into the returned error (errors.Join)")
				}
			}
		case *ast.DeferStmt:
			if _, isClose := oc.operatorMethodCall(stmt.Call, "Close"); isClose {
				oc.pass.Reportf(stmt.Call.Pos(), "deferred Close discards its error; close explicitly and return the error")
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) == 1 && allBlank(stmt.Lhs) {
				if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
					if _, isClose := oc.operatorMethodCall(call, "Close"); isClose {
						oc.pass.Reportf(call.Pos(), "Close error explicitly discarded; handle it or suppress with //lint:ignore opclose <reason>")
					}
				}
			}
		}
		return true
	})
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// --- Rule 2: local Open/Close path balance --------------------------

func (oc *opcloseCheck) localPairing() {
	for _, file := range oc.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					oc.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				// Closure bodies are functions in their own right: an Open
				// inside one must be balanced by a Close inside the same
				// closure, because nothing outside it can see the operator
				// once the closure returns.
				oc.checkFunc(fn.Body)
			}
			return true
		})
	}
}

// checkFunc runs the path walker over one function body.
func (oc *opcloseCheck) checkFunc(body *ast.BlockStmt) {
	cands := oc.candidates(body)
	if len(cands) == 0 {
		return
	}
	w := &pathWalker{
		oc:       oc,
		track:    cands,
		deferred: map[*types.Var]bool{},
		reported: map[token.Pos]bool{},
	}
	open := map[*types.Var]token.Pos{}
	if terminated := w.walkStmts(body.List, open); !terminated {
		w.leak(open, "function end")
	}
}

// candidates returns the local vars (and params) with an Operator type
// that have Open called on them directly and never escape the
// function: every other use is a method-call receiver or a nil check.
func (oc *opcloseCheck) candidates(body *ast.BlockStmt) map[*types.Var]bool {
	opened := map[*types.Var]bool{}
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, isOpen := oc.operatorMethodCall(call, "Open")
		if !isOpen {
			return true
		}
		if id, ok := recv.(*ast.Ident); ok {
			if v, ok := oc.pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() {
				// Skip vars opened inside nested closures: the closure's
				// lifetime is not the function's.
				for _, anc := range stack {
					if _, isLit := anc.(*ast.FuncLit); isLit {
						return true
					}
				}
				opened[v] = true
			}
		}
		return true
	})
	if len(opened) == 0 {
		return nil
	}
	// Escape filter.
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := oc.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !opened[v] {
			return true
		}
		if oc.escapes(id, stack) {
			delete(opened, v)
		}
		return true
	})
	return opened
}

// escapes classifies one use of a tracked var. Benign: receiver of a
// method call, nil comparison. Everything else transfers ownership.
func (oc *opcloseCheck) escapes(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return true
	}
	for _, anc := range stack {
		if _, isLit := anc.(*ast.FuncLit); isLit {
			return true // captured by a closure
		}
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// v.Method(...) — benign only when the selector is being called.
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == p {
				return false
			}
		}
		return true
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return false // nil check
		}
		return true
	default:
		return true
	}
}

// pathWalker is a small abstract interpreter over statement lists: the
// state is the set of currently-open tracked vars.
type pathWalker struct {
	oc       *opcloseCheck
	track    map[*types.Var]bool
	deferred map[*types.Var]bool
	reported map[token.Pos]bool
}

// scanCalls collects Open/Close calls on tracked vars inside n.
func (w *pathWalker) scanCalls(n ast.Node, open map[*types.Var]token.Pos) (openedInGuard map[*types.Var]token.Pos) {
	if n == nil {
		return nil
	}
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, isClose := w.oc.operatorMethodCall(call, "Close"); isClose {
			if v := w.trackedVar(recv); v != nil {
				delete(open, v)
			}
		}
		if recv, isOpen := w.oc.operatorMethodCall(call, "Open"); isOpen {
			if v := w.trackedVar(recv); v != nil {
				if openedInGuard == nil {
					openedInGuard = map[*types.Var]token.Pos{}
				}
				openedInGuard[v] = call.Pos()
			}
		}
		return true
	})
	return openedInGuard
}

func (w *pathWalker) trackedVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := w.oc.pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil || !w.track[v] {
		return nil
	}
	return v
}

func (w *pathWalker) leak(open map[*types.Var]token.Pos, where string) {
	for v, pos := range open {
		if w.deferred[v] || w.reported[pos] {
			continue
		}
		w.reported[pos] = true
		w.oc.pass.Reportf(pos, "%s.Open is not balanced by a Close on every path (%s reached with it open)", v.Name(), where)
	}
}

func copyState(open map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos, len(open))
	for k, v := range open {
		out[k] = v
	}
	return out
}

// walkStmts interprets a statement list, mutating open in place.
// It returns true when the list always terminates (returns/branches).
func (w *pathWalker) walkStmts(stmts []ast.Stmt, open map[*types.Var]token.Pos) bool {
	for _, stmt := range stmts {
		if w.walkStmt(stmt, open) {
			return true
		}
	}
	return false
}

func (w *pathWalker) walkStmt(stmt ast.Stmt, open map[*types.Var]token.Pos) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		for v, pos := range w.scanCalls(stmt, open) {
			open[v] = pos
		}
		return false

	case *ast.DeferStmt:
		if recv, isClose := w.oc.operatorMethodCall(s.Call, "Close"); isClose {
			if v := w.trackedVar(recv); v != nil {
				w.deferred[v] = true
				delete(open, v)
			}
		}
		return false

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.scanCalls(res, open)
		}
		w.leak(open, "return")
		return true

	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the loop-level
		// approximation absorbs the state.
		return true

	case *ast.BlockStmt:
		return w.walkStmts(s.List, open)

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, open)

	case *ast.IfStmt:
		// Closes in init/cond apply before any branch; Opens there are
		// the `if err := v.Open(ctx); err != nil` guard: the body is
		// the failure path (v not open), the continuation the success.
		guardOpens := map[*types.Var]token.Pos{}
		for _, n := range []ast.Node{s.Init, s.Cond} {
			for v, pos := range w.scanCalls(n, open) {
				guardOpens[v] = pos
			}
		}
		thenState := copyState(open)
		thenTerm := w.walkStmts(s.Body.List, thenState)
		elseState := copyState(open)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseState)
		}
		mergeBranches(open, []branch{{thenState, thenTerm}, {elseState, elseTerm}})
		for v, pos := range guardOpens {
			open[v] = pos
		}
		return thenTerm && elseTerm

	case *ast.ForStmt:
		for _, n := range []ast.Node{s.Init, s.Cond, s.Post} {
			for v, pos := range w.scanCalls(n, open) {
				open[v] = pos
			}
		}
		body := copyState(open)
		w.walkStmts(s.Body.List, body)
		return false

	case *ast.RangeStmt:
		for v, pos := range w.scanCalls(s.X, open) {
			open[v] = pos
		}
		body := copyState(open)
		w.walkStmts(s.Body.List, body)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		switch sw := stmt.(type) {
		case *ast.SwitchStmt:
			for v, pos := range w.scanCalls(sw.Init, open) {
				open[v] = pos
			}
			for v, pos := range w.scanCalls(sw.Tag, open) {
				open[v] = pos
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		hasDefault := false
		var branches []branch
		for _, cl := range clauses {
			var body []ast.Stmt
			switch c := cl.(type) {
			case *ast.CaseClause:
				if c.List == nil {
					hasDefault = true
				}
				body = c.Body
			case *ast.CommClause:
				body = c.Body
			}
			st := copyState(open)
			term := w.walkStmts(body, st)
			branches = append(branches, branch{st, term})
		}
		allTerm := hasDefault && len(branches) > 0
		for _, b := range branches {
			if !b.term {
				allTerm = false
			}
		}
		mergeBranches(open, branches)
		return allTerm

	case *ast.GoStmt:
		return false
	}
	return false
}

type branch struct {
	state map[*types.Var]token.Pos
	term  bool
}

// mergeBranches replaces open with the union of the surviving
// branches' open sets: a var is open after the statement when any
// non-terminating branch leaves it open.
func mergeBranches(open map[*types.Var]token.Pos, branches []branch) {
	merged := map[*types.Var]token.Pos{}
	for _, b := range branches {
		if b.term {
			continue
		}
		for v, pos := range b.state {
			merged[v] = pos
		}
	}
	for v := range open {
		delete(open, v)
	}
	for v, pos := range merged {
		open[v] = pos
	}
}

// --- Rule 3: field-level pairing across the method set --------------

func (oc *opcloseCheck) fieldPairing() {
	type fieldOpen struct {
		pos    token.Pos
		method string
	}
	opens := map[*types.TypeName]map[string]fieldOpen{}
	closes := map[*types.TypeName]map[string]bool{}
	implements := map[*types.TypeName]bool{}

	for _, file := range oc.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			tn := receiverTypeName(oc.pass, fd)
			if tn == nil {
				continue
			}
			if _, ok := implements[tn]; !ok {
				implements[tn] = analysis.Implements(tn.Type(), oc.iface)
			}
			if !implements[tn] {
				continue
			}
			recvObj := receiverVar(oc.pass, fd)
			if recvObj == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, method := range []string{"Open", "Close"} {
					recv, isCall := oc.operatorMethodCall(call, method)
					if !isCall {
						continue
					}
					field := fieldOf(oc.pass, recv, recvObj)
					if field == "" {
						continue
					}
					if method == "Open" {
						if opens[tn] == nil {
							opens[tn] = map[string]fieldOpen{}
						}
						if _, seen := opens[tn][field]; !seen {
							opens[tn][field] = fieldOpen{pos: call.Pos(), method: fd.Name.Name}
						}
					} else {
						if closes[tn] == nil {
							closes[tn] = map[string]bool{}
						}
						closes[tn][field] = true
					}
				}
				return true
			})
		}
	}
	for tn, fields := range opens {
		for field, fo := range fields {
			if !closes[tn][field] {
				oc.pass.Reportf(fo.pos, "%s.%s opens field %s but no method of %s closes it", tn.Name(), fo.method, field, tn.Name())
			}
		}
	}
}

// receiverVar returns the receiver parameter's object.
func receiverVar(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// fieldOf matches `recv.Field` exactly (one selector level on the
// method receiver) and returns the field name.
func fieldOf(pass *analysis.Pass, e ast.Expr, recv *types.Var) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recv {
		return ""
	}
	return sel.Sel.Name
}
