package lint

import (
	"go/ast"
	"go/types"

	"filterjoin/internal/lint/analysis"
)

// Ctxcancel enforces cancellation liveness (DESIGN.md §13): a serving
// engine must be able to abandon a query when the caller's
// context.Context is cancelled, which means every row-pumping loop has
// to observe exec.Context.Caller. Inside NextBatch (and its same-type
// helpers, including a row step handed to exec.FillRows as a method
// value, and package-level functions that drive an Operator parameter —
// the forEachBatch/Drain shims), a for/range loop that pulls rows (calls
// an Operator's NextBatch or exec.RowReader.Read, or one of the exec
// drain shims) must contain a cancellation check: ctx.Err(), a
// Caller/Done access, or a call into a helper that performs one.
// Without it, a hash join probing a large build side spins arbitrarily
// long after the caller hung up.
//
// Calls to exec's own drain shims (Drain, Count, forEachBatch,
// forEachInput, BuildKeySet, BuildKeySetSized) count as checked pulls:
// the rule applied to the exec package itself enforces that those shims
// check on every iteration, so crediting their callers is sound.
var Ctxcancel = &analysis.Analyzer{
	Name: "ctxcancel",
	Doc:  "row-pulling loops observe exec.Context cancellation",
	Run:  runCtxcancel,
}

// ccCheckedShims are exec package functions that both pull from an
// operator and observe cancellation internally (enforced when this
// analyzer runs over the exec package).
var ccCheckedShims = map[string]bool{
	"Drain":            true,
	"Count":            true,
	"forEachBatch":     true,
	"forEachInput":     true,
	"BuildKeySet":      true,
	"BuildKeySetSized": true,
}

func runCtxcancel(pass *analysis.Pass) error {
	iface := pass.NamedInterface(execPkgPath, "Operator")
	if iface == nil {
		return nil
	}
	cc := &ccAnalysis{pass: pass, iface: iface}
	cc.buildIndex()
	cc.propagateChecks()

	// Operator methods reachable from NextBatch.
	methodsOf := map[*types.TypeName]map[string]*ast.FuncDecl{}
	for _, fd := range cc.decls {
		if fd.Recv == nil {
			continue
		}
		tn := receiverTypeName(pass, fd)
		if tn == nil {
			continue
		}
		if methodsOf[tn] == nil {
			methodsOf[tn] = map[string]*ast.FuncDecl{}
		}
		methodsOf[tn][fd.Name.Name] = fd
	}
	for tn, methods := range methodsOf {
		if !analysis.Implements(tn.Type(), iface) {
			continue
		}
		for _, fd := range reachableMethods(pass, tn, methods, "NextBatch") {
			cc.checkLoops(fd.Body)
		}
	}

	// Package-level functions that drive an Operator parameter
	// (the drain shims themselves, when analyzing the exec package).
	for _, fd := range cc.decls {
		if fd.Recv != nil || !cc.hasOperatorParam(fd) {
			continue
		}
		cc.checkLoops(fd.Body)
	}
	return nil
}

type ccAnalysis struct {
	pass  *analysis.Pass
	iface *types.Interface
	decls []*ast.FuncDecl
	// byObj maps every package function/method object to its body.
	byObj map[types.Object]*ast.FuncDecl
	// checks marks functions that (transitively) observe cancellation.
	checks map[types.Object]bool
}

func (cc *ccAnalysis) buildIndex() {
	cc.byObj = map[types.Object]*ast.FuncDecl{}
	cc.checks = map[types.Object]bool{}
	for _, file := range cc.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cc.decls = append(cc.decls, fd)
			if obj := cc.pass.TypesInfo.Defs[fd.Name]; obj != nil {
				cc.byObj[obj] = fd
			}
		}
	}
}

// propagateChecks computes, to a fixpoint, which package functions
// reach a direct cancellation check through same-package calls.
func (cc *ccAnalysis) propagateChecks() {
	for obj, fd := range cc.byObj {
		if cc.containsDirectCheck(fd.Body) {
			cc.checks[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fd := range cc.byObj {
			if cc.checks[obj] {
				continue
			}
			hit := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if hit {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := cc.calleeObj(call); callee != nil && cc.checks[callee] {
						hit = true
					}
				}
				return true
			})
			if hit {
				cc.checks[obj] = true
				changed = true
			}
		}
	}
}

// calleeObj resolves a call to a same-package function/method object.
func (cc *ccAnalysis) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := cc.pass.TypesInfo.Uses[fun]; obj != nil {
			if _, ok := cc.byObj[obj]; ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := cc.pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, ok := cc.byObj[sel.Obj()]; ok {
				return sel.Obj()
			}
		} else if obj := cc.pass.TypesInfo.Uses[fun.Sel]; obj != nil {
			if _, ok := cc.byObj[obj]; ok {
				return obj
			}
		}
	}
	return nil
}

// containsDirectCheck reports whether the subtree observes cancellation:
// an Err() call on exec.Context or context.Context, a Done() call, or a
// Caller field access.
func (cc *ccAnalysis) containsDirectCheck(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		sel, ok := c.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Err", "Done":
			if cc.isCancelSource(sel.X) {
				found = true
			}
		case "Caller":
			if s, ok := cc.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
				if named := ccNamedOf(s.Recv()); named != nil && named.Obj().Name() == "Context" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == execPkgPath {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isCancelSource reports whether e is an exec.Context or a
// context.Context value.
func (cc *ccAnalysis) isCancelSource(e ast.Expr) bool {
	tv, ok := cc.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named := ccNamedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	name, path := named.Obj().Name(), named.Obj().Pkg().Path()
	return (name == "Context" && path == execPkgPath) || (name == "Context" && path == "context")
}

func ccNamedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasOperatorParam reports whether fd takes an exec.Operator (or
// implementation) parameter — the drain-shim shape.
func (cc *ccAnalysis) hasOperatorParam(fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, fl := range fd.Type.Params.List {
		t := cc.pass.TypesInfo.Types[fl.Type].Type
		if t == nil {
			continue
		}
		if types.Implements(t, cc.iface) || analysis.Implements(t, cc.iface) {
			return true
		}
	}
	return false
}

// checkLoops flags pull loops without a cancellation check, outermost
// first (an inner loop is only visited when its ancestors are clean).
func (cc *ccAnalysis) checkLoops(body *ast.BlockStmt) {
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			var loopBody *ast.BlockStmt
			switch l := c.(type) {
			case *ast.ForStmt:
				loopBody = l.Body
			case *ast.RangeStmt:
				loopBody = l.Body
			default:
				return true
			}
			if cc.containsPull(loopBody) && !cc.containsCheckCredit(loopBody) {
				cc.pass.Reportf(c.Pos(), "loop pulls rows but never observes cancellation; check ctx.Err() (or select on Caller.Done) each iteration")
			} else {
				visit(loopBody)
			}
			return false
		})
	}
	visit(body)
}

// containsPull reports whether the loop body pulls rows: an operator
// NextBatch call, an exec.RowReader.Read call, or a drain-shim call.
func (cc *ccAnalysis) containsPull(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cc.isShimCall(call) {
			found = true
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := cc.pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.MethodVal {
			return true
		}
		switch sel.Sel.Name {
		case "NextBatch":
			found = analysis.Implements(s.Recv(), cc.iface)
		case "Read":
			named := ccNamedOf(s.Recv())
			found = named != nil && named.Obj().Name() == "RowReader" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == execPkgPath
		}
		return true
	})
	return found
}

// isShimCall matches calls to exec's checked drain shims, qualified
// (exec.Drain) or package-local (forEachInput).
func (cc *ccAnalysis) isShimCall(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = cc.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = cc.pass.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != execPkgPath {
		return false
	}
	return ccCheckedShims[fn.Name()]
}

// containsCheckCredit reports whether the loop body observes
// cancellation directly, via a shim call, or via a same-package callee
// that does.
func (cc *ccAnalysis) containsCheckCredit(n ast.Node) bool {
	if cc.containsDirectCheck(n) {
		return true
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cc.isShimCall(call) {
			found = true
			return true
		}
		if callee := cc.calleeObj(call); callee != nil && cc.checks[callee] {
			found = true
		}
		return true
	})
	return found
}
