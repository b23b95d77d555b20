package lint

import (
	"go/ast"
	"go/types"

	"filterjoin/internal/lint/analysis"
)

// Parambind enforces bind completeness for prepared statements
// (DESIGN.md §12/§13): a cached plan is executed with whatever
// arguments the current call supplies, so every expression an operator
// captured at plan time must be rebound through expr.BindParams /
// BindParamsList / BindAggs when the operator Opens — otherwise an
// expr.Param inside it evaluates to the planning-time value (or errors
// unbound) instead of the caller's argument. Two rules:
//
//  1. Operator capture: an exec.Operator implementation with a field of
//     type expr.Expr, []expr.Expr, or []expr.AggSpec must, in a method
//     reachable from Open, assign that field from one of the Bind*
//     helpers; a field holding a compiled predicate (*expr.Pred) must
//     have its Bind method called there. The field declaration is
//     flagged otherwise.
//  2. Evaluator coverage: a type switch over expr.Expr that special-
//     cases expr.Lit (constant folding, selectivity classification,
//     normalization) must also case expr.Param — a bound parameter is
//     exactly a constant, and letting it fall into the default arm
//     silently mis-classifies it.
var Parambind = &analysis.Analyzer{
	Name: "parambind",
	Doc:  "operator-captured expressions are rebound at Open and Lit-handling switches handle Param",
	Run:  runParambind,
}

const exprPkgPath = "filterjoin/internal/expr"

func runParambind(pass *analysis.Pass) error {
	runParambindFields(pass)
	runParambindSwitches(pass)
	return nil
}

// isExprNamed reports whether t is the named type path.name.
func isExprNamed(t types.Type, path, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// predBind is the rebinding a *expr.Pred field needs: its own method,
// not a helper the field is assigned from.
const predBind = "Pred.Bind"

// bindableFieldKind classifies an operator field that captures
// expressions, returning the Bind helper expected to rebind it ("" when
// the field is not expression-typed).
func bindableFieldKind(t types.Type) string {
	if isExprNamed(t, exprPkgPath, "Expr") {
		return "BindParams"
	}
	if p, ok := t.(*types.Pointer); ok && isExprNamed(p.Elem(), exprPkgPath, "Pred") {
		return predBind
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if isExprNamed(sl.Elem(), exprPkgPath, "Expr") {
			return "BindParamsList"
		}
		if isExprNamed(sl.Elem(), exprPkgPath, "AggSpec") {
			return "BindAggs"
		}
	}
	return ""
}

func runParambindFields(pass *analysis.Pass) {
	iface := pass.NamedInterface(execPkgPath, "Operator")
	if iface == nil || pass.ImportedPackage(exprPkgPath) == nil {
		return
	}
	methodsOf := map[*types.TypeName]map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if tn := receiverTypeName(pass, fd); tn != nil {
				if methodsOf[tn] == nil {
					methodsOf[tn] = map[string]*ast.FuncDecl{}
				}
				methodsOf[tn][fd.Name.Name] = fd
			}
		}
	}

	// Struct declaration positions, for flagging the captured field.
	structDecls := map[*types.TypeName]*ast.StructType{}
	pass.Inspect(func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
			structDecls[tn] = st
		}
		return true
	})

	for tn, methods := range methodsOf {
		if !analysis.Implements(tn.Type(), iface) {
			continue
		}
		st, ok := structDecls[tn]
		if !ok {
			continue
		}
		if _, hasOpen := methods["Open"]; !hasOpen {
			continue
		}

		// Open-reachable method set.
		openReach := map[string]*ast.FuncDecl{}
		var add func(name string)
		add = func(name string) {
			fd, ok := methods[name]
			if !ok || openReach[name] != nil {
				return
			}
			openReach[name] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if callee := calleeOn(pass, sel, tn); callee != "" {
							add(callee)
						}
					}
				}
				return true
			})
		}
		add("Open")

		// Fields rebound via expr.Bind* anywhere on the Open side.
		bound := map[string]bool{}
		for _, fd := range openReach {
			recv := receiverVarOf(pass, fd)
			if recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					// x.pred.Bind(...): the compiled-predicate rebinding.
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Bind" {
						if field := firstFieldOf(pass, recv, sel.X); field != "" {
							bound[field] = true
						}
					}
					return true
				}
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					field := firstFieldOf(pass, recv, lhs)
					if field == "" || i >= len(as.Rhs) {
						continue
					}
					if callsBindHelper(pass, as.Rhs[i]) {
						bound[field] = true
					}
				}
				return true
			})
		}

		for _, fl := range st.Fields.List {
			ft := pass.TypesInfo.Types[fl.Type].Type
			if ft == nil {
				continue
			}
			helper := bindableFieldKind(ft)
			if helper == "" {
				continue
			}
			for _, name := range fl.Names {
				if bound[name.Name] {
					continue
				}
				if helper == predBind {
					pass.Reportf(name.Pos(), "operator %s holds compiled predicate %s but no Open-reachable method calls its Bind; a cached plan executes with stale bind-parameter values",
						tn.Name(), name.Name)
					continue
				}
				pass.Reportf(name.Pos(), "operator %s captures expression field %s but no Open-reachable method rebinds it via expr.%s; a cached plan executes with stale bind-parameter values",
					tn.Name(), name.Name, helper)
			}
		}
	}
}

// callsBindHelper reports whether e contains a call to one of the expr
// package's parameter-binding helpers.
func callsBindHelper(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[fun.Sel]
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[fun]
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != exprPkgPath {
			return true
		}
		switch fn.Name() {
		case "BindParams", "BindParamsList", "BindAggs":
			found = true
		}
		return true
	})
	return found
}

func runParambindSwitches(pass *analysis.Pass) {
	exprIface := pass.NamedInterface(exprPkgPath, "Expr")
	if exprIface == nil {
		return
	}
	pass.Inspect(func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		var tag ast.Expr
		switch a := ts.Assign.(type) {
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				if t, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
					tag = t.X
				}
			}
		case *ast.ExprStmt:
			if t, ok := a.X.(*ast.TypeAssertExpr); ok {
				tag = t.X
			}
		}
		if tag == nil {
			return true
		}
		tt := pass.TypesInfo.Types[tag].Type
		if tt == nil || !isExprNamed(tt, exprPkgPath, "Expr") {
			return true
		}
		hasLit, hasParam := false, false
		for _, cs := range ts.Body.List {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, te := range cc.List {
				ct := pass.TypesInfo.Types[te].Type
				if ct == nil {
					continue
				}
				if isExprNamed(ct, exprPkgPath, "Lit") {
					hasLit = true
				}
				if isExprNamed(ct, exprPkgPath, "Param") {
					hasParam = true
				}
			}
		}
		if hasLit && !hasParam {
			pass.Reportf(ts.Pos(), "type switch over expr.Expr handles expr.Lit but not expr.Param; a bound parameter is a constant too — classify it or bind before evaluating")
		}
		return true
	})
}
