package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"filterjoin/internal/lint/analysis"
)

// Sharesafe enforces the cached-plan immutability contract (DESIGN.md
// §12/§13): a plan-cache entry is shared by every session that hits it,
// and its Make closures may be invoked concurrently, so the executable
// state an operator mutates must be private to one execution. Three
// rules make the fork-at-Open convention a checked contract:
//
//  1. Fork before write: inside Open/NextBatch/Close (and the
//     same-type helpers they reach, by call or as a method value such
//     as the row step handed to exec.FillRows), a write through a pointer- or
//     interface-typed receiver field (x.P.f = v) is flagged unless the
//     field itself was reassigned earlier in the same method (x.P =
//     x.spec.P.Fork() and the like) — otherwise concurrent executions
//     of one cached plan race on a single shared object.
//  2. Reset at Open: every receiver field an operator writes on the
//     NextBatch side must be written (or reset via a method call /
//     address-taken fill) on the Open side, so a reopened or re-served
//     operator never replays state from a previous execution.
//  3. Fresh Make: a func literal assigned to a Make field must return a
//     freshly built operator (constructor call, composite literal, or a
//     variable declared inside the closure) — returning a captured
//     instance would hand the same operator to every execution.
var Sharesafe = &analysis.Analyzer{
	Name: "sharesafe",
	Doc:  "operator state written during execution is forked or reset at Open, never shared via the plan cache",
	Run:  runSharesafe,
}

func runSharesafe(pass *analysis.Pass) error {
	iface := pass.NamedInterface(execPkgPath, "Operator")
	if iface != nil {
		runSharesafeOperators(pass, iface)
	}
	runSharesafeMake(pass)
	return nil
}

func runSharesafeOperators(pass *analysis.Pass, iface *types.Interface) {
	methodsOf := map[*types.TypeName]map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
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
	}

	for tn, methods := range methodsOf {
		if !analysis.Implements(tn.Type(), iface) {
			continue
		}
		for _, fd := range reachableMethods(pass, tn, methods, "Open", "NextBatch", "Close") {
			checkForkBeforeWrite(pass, tn, fd)
		}

		if _, hasOpen := methods["Open"]; !hasOpen {
			continue
		}
		openReach := map[*ast.FuncDecl]bool{}
		openResets := map[string]bool{}
		for _, fd := range reachableMethods(pass, tn, methods, "Open") {
			openReach[fd] = true
			collectFieldTouches(pass, fd, func(field string, _ token.Pos, _ bool) {
				openResets[field] = true
			})
		}
		reported := map[string]bool{}
		for _, fd := range reachableMethods(pass, tn, methods, "NextBatch") {
			if openReach[fd] {
				continue // shared helper: its writes count as Open-side resets
			}
			collectFieldTouches(pass, fd, func(field string, pos token.Pos, isWrite bool) {
				if !isWrite || openResets[field] || reported[field] {
					return
				}
				reported[field] = true
				pass.Reportf(pos, "%s.%s writes field %s but Open never resets it; a cached or reopened plan replays stale state from the previous execution",
					tn.Name(), fd.Name.Name, field)
			})
		}
	}
}

// receiverVarOf resolves the method's receiver variable.
func receiverVarOf(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// firstFieldOf returns the name of the first field selected off the
// receiver in a selector chain rooted at it ("in" for g.in.Rows), or "".
func firstFieldOf(pass *analysis.Pass, recv *types.Var, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	for {
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			break
		}
		sel = inner
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recv {
		return ""
	}
	return sel.Sel.Name
}

// collectFieldTouches reports every first-level receiver-field touch in
// fd: assignments and increments (isWrite), address-taking, and method
// calls on the field (reset-style touches, isWrite=false).
func collectFieldTouches(pass *analysis.Pass, fd *ast.FuncDecl, f func(field string, pos token.Pos, isWrite bool)) {
	recv := receiverVarOf(pass, fd)
	if recv == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if field := firstFieldOf(pass, recv, lhs); field != "" {
					f(field, lhs.Pos(), true)
				}
			}
		case *ast.IncDecStmt:
			if field := firstFieldOf(pass, recv, x.X); field != "" {
				f(field, x.X.Pos(), true)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if field := firstFieldOf(pass, recv, x.X); field != "" {
					// &x.F handed out for filling: a write on the
					// NextBatch side, an acceptable reset on the Open side.
					f(field, x.X.Pos(), true)
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if field := firstFieldOf(pass, recv, sel.X); field != "" {
					f(field, x.Pos(), false)
				}
			}
		}
		return true
	})
}

// checkForkBeforeWrite flags writes through pointer/interface-typed
// receiver fields that were not freshly reassigned earlier in the same
// method body.
func checkForkBeforeWrite(pass *analysis.Pass, tn *types.TypeName, fd *ast.FuncDecl) {
	recv := receiverVarOf(pass, fd)
	if recv == nil {
		return
	}
	// Positions where each first-level field is (re)assigned whole.
	assigned := map[string][]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], lhs.Pos())
			}
		}
		return true
	})
	freshBefore := func(field string, pos token.Pos) bool {
		for _, p := range assigned[field] {
			if p < pos {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var target ast.Expr
		var pos token.Pos
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkSharedWrite(pass, tn, fd, recv, lhs, lhs.Pos(), freshBefore)
			}
			return true
		case *ast.IncDecStmt:
			target, pos = x.X, x.X.Pos()
		}
		if target != nil {
			checkSharedWrite(pass, tn, fd, recv, target, pos, freshBefore)
		}
		return true
	})
}

// checkSharedWrite inspects one write target: recv.P.f… where P is a
// pointer- or interface-typed field is a shared-object mutation unless
// P was reassigned earlier in the method.
func checkSharedWrite(pass *analysis.Pass, tn *types.TypeName, fd *ast.FuncDecl, recv *types.Var, lhs ast.Expr, pos token.Pos, freshBefore func(string, token.Pos) bool) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Walk down: need at least recv.P.f (two selector levels).
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	for {
		deeper, ok := inner.X.(*ast.SelectorExpr)
		if !ok {
			break
		}
		inner = deeper
	}
	id, ok := inner.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recv {
		return
	}
	field := inner.Sel.Name
	ftype := pass.TypesInfo.Types[inner].Type
	if ftype == nil {
		return
	}
	switch ftype.Underlying().(type) {
	case *types.Pointer, *types.Interface:
	default:
		return
	}
	if freshBefore(field, pos) {
		return
	}
	pass.Reportf(pos, "%s.%s writes through shared field %s without forking it first; concurrent executions of a cached plan mutate one shared object",
		tn.Name(), fd.Name.Name, field)
}

// runSharesafeMake checks rule 3: Make closures build fresh operators.
func runSharesafeMake(pass *analysis.Pass) {
	pass.Inspect(func(n ast.Node) bool {
		var fl *ast.FuncLit
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok && id.Name == "Make" {
				fl, _ = x.Value.(*ast.FuncLit)
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Make" || i >= len(x.Rhs) {
					continue
				}
				if cand, ok := x.Rhs[i].(*ast.FuncLit); ok {
					checkMakeFreshness(pass, cand)
				}
			}
			return true
		}
		if fl != nil {
			checkMakeFreshness(pass, fl)
		}
		return true
	})
}

// checkMakeFreshness flags returns of captured (closure-external)
// variables from a Make closure.
func checkMakeFreshness(pass *analysis.Pass, fl *ast.FuncLit) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch x := c.(type) {
			case *ast.FuncLit:
				return x == n // don't descend into nested closures
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					checkMakeReturn(pass, fl, r)
				}
			}
			return true
		})
	}
	walk(fl)
}

func checkMakeReturn(pass *analysis.Pass, fl *ast.FuncLit, r ast.Expr) {
	switch x := r.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil || x.Name == "nil" {
			return
		}
		if obj.Pos() < fl.Body.Lbrace || obj.Pos() > fl.Body.Rbrace {
			pass.Reportf(r.Pos(), "Make closure returns captured variable %s; Make must build a fresh operator tree per call (cached plans share the closure)", x.Name)
		}
	case *ast.SelectorExpr:
		if _, ok := pass.TypesInfo.Selections[x]; ok {
			pass.Reportf(r.Pos(), "Make closure returns captured field %s; Make must build a fresh operator tree per call (cached plans share the closure)", x.Sel.Name)
		}
	}
}
