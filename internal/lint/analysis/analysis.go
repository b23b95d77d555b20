// Package analysis is a dependency-free subset of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The
// toolchain image this repo builds in has no module proxy access, so
// the upstream module cannot be imported; keeping the shapes identical
// (Analyzer.Name/Doc/Run, Pass.Fset/Files/Pkg/TypesInfo/Reportf) means
// the optlint analyzers can be ported to the real framework by swapping
// this import alone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// WithStack walks the subtree rooted at n in depth-first order,
// calling f with each node and the stack of its ancestors (outermost
// first, not including the node itself). Returning false skips the
// node's children. It mirrors x/tools' inspector.WithStack closely
// enough for the analyzers here.
func WithStack(n ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	var walk func(ast.Node)
	walk = func(cur ast.Node) {
		if cur == nil {
			return
		}
		if !f(cur, stack) {
			return
		}
		stack = append(stack, cur)
		ast.Inspect(cur, func(c ast.Node) bool {
			if c == cur {
				return true
			}
			if c == nil {
				return false
			}
			walk(c)
			return false
		})
		stack = stack[:len(stack)-1]
	}
	walk(n)
}
