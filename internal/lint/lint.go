// Package lint hosts optlint, the repo's static-analysis suite. Three
// analyzers encode contracts the paper's cost-based argument depends on
// that no run can check (see DESIGN.md "Static analysis"):
//
//   - exhaustive: switches over the Limitation 3 filter-set variant
//     enums cover every variant; type switches over expr.Expr cover
//     every expression form or carry a default.
//   - floatcmp:   cost dominance comparisons go through the epsilon
//     helpers in internal/cost, never raw float operators.
//   - lockepoch:  Engine catalog/model mutations happen inside a
//     write span (internal/epoch.Lock bumps the epoch and invalidates
//     on every exit), spans never nest, and only the two span
//     functions touch the mutex (epoch monotonicity).
//
// A finding is suppressed by a "//lint:ignore <analyzer> <reason>"
// comment on the flagged line or the line directly above it.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"filterjoin/internal/lint/analysis"
	"filterjoin/internal/lint/loader"
)

// All returns the full analyzer suite in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Exhaustive,
		Floatcmp,
		Lockepoch,
	}
}

// enforcedPackage reports whether an analyzer scoped to the given real
// package set should run on the package: either the path is in the
// set, or it is an analysistest fixture (loaded under "fixture/").
func enforcedPackage(path string, real map[string]bool) bool {
	return real[path] || strings.HasPrefix(path, "fixture/")
}

// ignoreRe matches one suppression directive.
var ignoreRe = regexp.MustCompile(`//lint:ignore\s+([a-z,]+)\s+\S`)

// ignoresIn collects, per file line, the analyzer names suppressed on
// that line. A directive suppresses both its own line and the next
// line, so it works as a trailing comment and as a standalone comment
// above the flagged statement.
func ignoresIn(pkg *loader.Package, fset *token.FileSet) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					out[pos.Filename] = byLine
				}
				names := strings.Split(m[1], ",")
				byLine[pos.Line] = append(byLine[pos.Line], names...)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], names...)
			}
		}
	}
	return out
}

// Directive is one parsed //lint:ignore comment. Parsing here is
// deliberately lenient — malformed directives (no analyzer name, no
// reason) are returned with empty fields rather than skipped, so the
// suppression audit can reject them. Note a reason-less directive also
// fails to match ignoreRe, i.e. it suppresses nothing at runtime.
type Directive struct {
	File   string
	Line   int
	Names  []string
	Reason string
}

// directiveRe is the lenient counterpart of ignoreRe: it matches any
// comment that begins a suppression attempt, well-formed or not.
var directiveRe = regexp.MustCompile(`^//lint:ignore\b[ \t]*(\S*)[ \t]*(.*)$`)

// DirectivesIn parses every //lint:ignore comment in pkgs.
func DirectivesIn(fset *token.FileSet, pkgs []*loader.Package) []Directive {
	var out []Directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := directiveRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					d := Directive{File: pos.Filename, Line: pos.Line, Reason: strings.TrimSpace(m[2])}
					if m[1] != "" {
						d.Names = strings.Split(m[1], ",")
					}
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// RunRaw applies every analyzer with suppression disabled, returning
// every diagnostic produced. The suppression audit uses this to detect
// stale ignores: a directive with no raw diagnostic on its line or the
// next is dead weight.
func RunRaw(fset *token.FileSet, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	return run(fset, pkgs, analyzers, false)
}

// Run applies every analyzer to every package and returns the
// surviving (unsuppressed) diagnostics sorted by position.
func Run(fset *token.FileSet, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	return run(fset, pkgs, analyzers, true)
}

func run(fset *token.FileSet, pkgs []*loader.Package, analyzers []*analysis.Analyzer, suppress bool) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if pkg.Pkg == nil {
			continue
		}
		var ignores map[string]map[int][]string
		if suppress {
			ignores = ignoresIn(pkg, fset)
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				for _, name := range ignores[pos.Filename][pos.Line] {
					if name == d.Analyzer {
						return
					}
				}
				diags = append(diags, d)
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
