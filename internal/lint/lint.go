// Package lint hosts optlint, the repo's static-analysis suite. One
// analyzer remains, for the one contract no run or type in the tree
// carries (see DESIGN.md "Static analysis"):
//
//   - lockepoch: Engine catalog/model mutations happen inside a
//     write span (internal/epoch.Lock bumps the epoch and invalidates
//     on every exit), spans never nest, and only the two span
//     functions touch the mutex (epoch monotonicity).
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"filterjoin/internal/lint/analysis"
	"filterjoin/internal/lint/loader"
)

// All returns the full analyzer suite in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Lockepoch}
}

// Run applies every analyzer to every package and returns the
// diagnostics sorted by position.
func Run(fset *token.FileSet, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if pkg.Pkg == nil {
			continue
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
