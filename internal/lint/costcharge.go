package lint

import (
	"go/ast"
	"go/types"

	"filterjoin/internal/lint/analysis"
)

// Costcharge statically extends the runtime cost-conservation property
// test: every exec.Operator implementation whose Open/NextBatch does row
// work — loops over child rows, hashes, sorts, probes — must charge
// that work to ctx.Counter, the shared cost ledger the paper's Table 1
// components are measured against. An operator that works for free
// makes every estimate-vs-actual comparison (experiment E11) and the
// EXPLAIN ANALYZE misestimate flags silently wrong for the plans that
// contain it.
//
// Detection is per type: the bodies of Open and NextBatch, plus any
// methods of the same type they (transitively) call or pass as method
// values (the row step handed to exec.FillRows), are scanned. "Row
// work" is a for/range loop or a call into sort/heap; "charging" is any
// reference to the Counter field of exec.Context. Pure pass-through
// operators (no loops) are exempt. The batch idiom — accumulate units
// in a local, flush to ctx.Counter once per batch — satisfies the
// invariant.
var Costcharge = &analysis.Analyzer{
	Name: "costcharge",
	Doc:  "require Operator Open/NextBatch methods that do row work to charge ctx.Counter",
	Run:  runCostcharge,
}

const execPkgPath = "filterjoin/internal/exec"

func runCostcharge(pass *analysis.Pass) error {
	iface := pass.NamedInterface(execPkgPath, "Operator")
	if iface == nil {
		return nil
	}

	// Group method declarations by receiver named type.
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
		var workPos *ast.FuncDecl
		charges := false
		for _, fd := range reachableMethods(pass, tn, methods, "Open", "NextBatch") {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					if workPos == nil {
						workPos = fd
					}
				case *ast.CallExpr:
					if isPkgCall(pass, x, "sort") || isPkgCall(pass, x, "heap") || isKernelCall(pass, x) {
						if workPos == nil {
							workPos = fd
						}
					}
				case *ast.SelectorExpr:
					if isCounterField(pass, x) {
						charges = true
					}
				}
				return true
			})
		}
		if workPos != nil && !charges {
			pass.Reportf(workPos.Name.Pos(), "%s.%s does row work but no method of %s reachable from Open/NextBatch charges ctx.Counter; Table 1 cost conservation breaks for plans containing it",
				tn.Name(), workPos.Name.Name, tn.Name())
		}
	}
	return nil
}

// reachableMethods returns the seed methods of tn that exist plus every
// same-type method they reach — called, or taken as a method value (the
// row step handed to exec.FillRows) — in first-visit order.
func reachableMethods(pass *analysis.Pass, tn *types.TypeName, methods map[string]*ast.FuncDecl, seeds ...string) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	seen := map[string]bool{}
	var add func(name string)
	add = func(name string) {
		fd, ok := methods[name]
		if !ok || seen[name] {
			return
		}
		seen[name] = true
		out = append(out, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if callee := calleeOn(pass, sel, tn); callee != "" {
					add(callee)
				}
			}
			return true
		})
	}
	for _, s := range seeds {
		add(s)
	}
	return out
}

// receiverTypeName resolves a method's receiver to its named type.
func receiverTypeName(pass *analysis.Pass, fd *ast.FuncDecl) *types.TypeName {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic receivers like T[P] (none in this repo, but cheap).
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, _ := pass.TypesInfo.Uses[id].(*types.TypeName)
	if tn == nil {
		tn, _ = pass.TypesInfo.Defs[id].(*types.TypeName)
	}
	return tn
}

// calleeOn returns the method name when sel selects a method of the
// named type tn (through any receiver expression) — a call or a method
// value — else "".
func calleeOn(pass *analysis.Pass, sel *ast.SelectorExpr, tn *types.TypeName) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok && named.Obj() == tn {
		return sel.Sel.Name
	}
	return ""
}

// isPkgCall reports whether call invokes a function from the package
// with the given name (sort.Slice, heap.Push, ...).
func isPkgCall(pass *analysis.Pass, call *ast.CallExpr, pkgName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Name() == pkgName
}

// isKernelCall reports whether call invokes a compiled expression
// kernel's batch entry point (expr.Pred.SelectBatch or EvalBatch): the
// kernel loops over the whole batch internally, so the call is row work
// — chargeable per the kernel's returned evaluated-row count — even
// though no loop appears in the operator body.
func isKernelCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "SelectBatch" && sel.Sel.Name != "EvalBatch") {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Pred" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "filterjoin/internal/expr"
}

// isCounterField reports whether sel selects the Counter field of
// exec.Context (directly or through an embedded pointer).
func isCounterField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Counter" {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Context" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == execPkgPath
}
