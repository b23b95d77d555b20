package lint

import (
	"go/ast"
	"go/types"

	"filterjoin/internal/lint/analysis"
)

// Opclose enforces the half of the Volcano lifecycle contract no run
// can observe: a Close() error on an exec.Operator must never be
// silently dropped. A bare `op.Close(ctx)` statement, a
// `defer op.Close(ctx)`, and `_ = op.Close(ctx)` are all flagged. Close
// is where operators surface deferred resource errors; dropping it
// hides them. Open/Close balance itself is checked by running plans:
// the lifecycle sweep in internal/core cancels and faults every plan of
// its corpus at each step and asserts Opens == Closes per operator.
var Opclose = &analysis.Analyzer{
	Name: "opclose",
	Doc:  "forbid dropped Operator Close errors",
	Run:  runOpclose,
}

func runOpclose(pass *analysis.Pass) error {
	iface := pass.NamedInterface(execPkgPath, "Operator")
	if iface == nil {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok && isOperatorClose(pass, iface, call) {
				pass.Reportf(call.Pos(), "Close error silently dropped; on error paths join it into the returned error (errors.Join)")
			}
		case *ast.DeferStmt:
			if isOperatorClose(pass, iface, stmt.Call) {
				pass.Reportf(stmt.Call.Pos(), "deferred Close discards its error; close explicitly and return the error")
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) == 1 && allBlank(stmt.Lhs) {
				if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok && isOperatorClose(pass, iface, call) {
					pass.Reportf(call.Pos(), "Close error explicitly discarded; handle it or suppress with //lint:ignore opclose <reason>")
				}
			}
		}
		return true
	})
	return nil
}

// isOperatorClose reports whether call invokes Close on a value whose
// type satisfies exec.Operator.
func isOperatorClose(pass *analysis.Pass, iface *types.Interface, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && tv.Type != nil && analysis.Implements(tv.Type, iface)
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
