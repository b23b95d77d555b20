package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"filterjoin/internal/lint/analysis"
)

// Lockepoch guards the serving layer's epoch/lock discipline (DESIGN.md
// §12/§13). The discipline has four guarantees: (a) every catalog/model
// mutation holds the write lock, (b) it is followed, before the lock is
// released, by an epoch bump plus a cache invalidation, (c) nothing
// acquires the lock while already holding it (sync.RWMutex deadlocks on
// upgrade and on re-entry), (d) nobody but the lock's owner touches the
// mutex. The span type (internal/epoch.Lock: Read and Write methods
// over an unexported RWMutex and epoch) enforces (b) and most of (d) by
// construction; what a type cannot say is where its closures are
// written, and that is what remains here, checked lexically:
//
//	(i)   a leMutators call appears only inside a Write closure, or in
//	      an unexported function referenced only from one (transitively);
//	(ii)  no Read or Write is entered inside a span closure, or in a
//	      function referenced from one (transitively);
//	(iii) in the package declaring a span type, its mutex is named only
//	      in the Read and Write methods.
//
// A span type is recognized by shape — a struct with a sync.RWMutex
// field and an integer field named epoch — and its spans by name. Rules
// (i) and (ii) run on packages that enter a span; everything else (a
// fork planning on its private cloned catalog, say) is out of scope.
var Lockepoch = &analysis.Analyzer{
	Name: "lockepoch",
	Doc:  "engine mutations happen inside a write span, spans never nest, and only the span functions touch the lock",
	Run:  runLockepoch,
}

// leMutators names the catalog/storage/model mutating calls whose
// effects outlive the statement: anything reaching one of these has
// changed what cached plans were optimized against.
var leMutators = map[string]bool{
	"AddTable":       true,
	"AddView":        true,
	"AddRemoteTable": true,
	"AddRemoteView":  true,
	"AddFunc":        true,
	"Insert":         true,
	"CreateIndex":    true,
	"FoldAppended":   true,
	"FoldInsert":     true,
	"LoadCSV":        true,
	"Drop":           true,
	// Adaptive statistics feedback (DESIGN.md §15): recording an observed
	// selectivity changes what future optimizations estimate, exactly
	// like a stats invalidation.
	"ObserveFeedback": true,
}

// leSite is one interesting program point: where it is, which declared
// function it is written in, and the kind of span closure ("read",
// "write" or "") lexically around it.
type leSite struct {
	pos  token.Pos
	from *types.Func
	span string
	name string // callee name (mutator and span sites)
}

func runLockepoch(pass *analysis.Pass) error {
	var mutations, entries []leSite
	refs := map[*types.Func][]leSite{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			from, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			analysis.WithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					site := leSite{pos: x.Pos(), from: from, span: leEnclosingSpan(pass, x, stack)}
					if site.name = leSpanCall(pass, x); site.name != "" {
						entries = append(entries, site)
					} else if site.name = leMutatorCall(pass, x); site.name != "" {
						mutations = append(mutations, site)
					}
				case *ast.Ident:
					if f, ok := pass.TypesInfo.Uses[x].(*types.Func); ok && f.Pkg() == pass.Pkg && f != from {
						refs[f] = append(refs[f], leSite{pos: x.Pos(), from: from, span: leEnclosingSpan(pass, x, stack)})
					}
				case *ast.SelectorExpr:
					// Rule (iii).
					if leSpanMutex(pass, x) && !leIsSpanMethod(from) {
						pass.Reportf(x.Pos(), "span mutex named outside Read/Write: only the two span functions may touch the lock")
					}
				}
				return true
			})
		}
	}
	if len(entries) == 0 {
		return nil
	}

	// writeOnly: unexported functions every reference to which is inside
	// a Write closure or another writeOnly function. inSpan: functions
	// some reference to which is inside a span closure or another inSpan
	// function. Both are least fixpoints over the reference sites.
	writeOnly := map[*types.Func]bool{}
	inSpan := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for f, sites := range refs {
			all := !f.Exported()
			for _, s := range sites {
				all = all && (s.span == "write" || writeOnly[s.from])
				if !inSpan[f] && (s.span != "" || inSpan[s.from]) {
					inSpan[f], changed = true, true
				}
			}
			if all && !writeOnly[f] {
				writeOnly[f], changed = true, true
			}
		}
	}

	// Rule (i).
	for _, m := range mutations {
		if m.span != "write" && !writeOnly[m.from] {
			pass.Reportf(m.pos, "catalog/model mutation %s() outside a write span", m.name)
		}
	}
	// Rule (ii).
	for _, e := range entries {
		switch {
		case e.span != "":
			pass.Reportf(e.pos, "%s span entered inside a %s span (self-deadlock)", strings.ToLower(e.name), e.span)
		case inSpan[e.from]:
			via := token.NoPos
			for _, s := range refs[e.from] {
				if s.span != "" || inSpan[s.from] {
					via = s.pos
					break
				}
			}
			pass.Reportf(e.pos, "%s span entered in %s, which runs inside a span (referenced at line %d): self-deadlock",
				strings.ToLower(e.name), e.from.Name(), pass.Fset.Position(via).Line)
		}
	}
	return nil
}

// leSpanType reports whether t (or *t) is a struct with a sync.RWMutex
// field and an integer field named epoch.
func leSpanType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasMu, hasEpoch := false, false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if leIsRWMutex(f.Type()) {
			hasMu = true
		}
		if strings.EqualFold(f.Name(), "epoch") {
			if b, ok := f.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				hasEpoch = true
			}
		}
	}
	return hasMu && hasEpoch
}

func leIsRWMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "RWMutex" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// leIsSpanMethod reports whether f is the Read or Write method of a
// span type.
func leIsSpanMethod(f *types.Func) bool {
	if f == nil || (f.Name() != "Read" && f.Name() != "Write") {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && leSpanType(recv.Type())
}

// leSpanCall returns "Read" or "Write" when call enters a span, else "".
func leSpanCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	if f, _ := s.Obj().(*types.Func); leIsSpanMethod(f) {
		return f.Name()
	}
	return ""
}

// leMutatorCall returns the method name when call invokes a method from
// the mutator name set (on any receiver — catalog, entries, tables).
func leMutatorCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !leMutators[sel.Sel.Name] {
		return ""
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return sel.Sel.Name
	}
	return ""
}

// leSpanMutex reports whether sel selects the RWMutex field of a span
// type.
func leSpanMutex(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal && leIsRWMutex(s.Obj().Type()) && leSpanType(s.Recv())
}

// leEnclosingSpan returns the kind of span whose argument list n sits
// in — normally the closure literal, but a function value passed by
// name counts too: "write" if any enclosing span is a write span, else
// "read" if any is, else "".
func leEnclosingSpan(pass *analysis.Pass, n ast.Node, stack []ast.Node) string {
	kind := ""
	for i, anc := range stack {
		call, ok := anc.(*ast.CallExpr)
		if !ok {
			continue
		}
		child := n
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		if child == ast.Node(call.Fun) {
			continue
		}
		switch leSpanCall(pass, call) {
		case "Write":
			return "write"
		case "Read":
			kind = "read"
		}
	}
	return kind
}
