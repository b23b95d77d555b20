// Package analysistest runs one optlint analyzer over a fixture package
// under internal/lint/testdata/src and checks its diagnostics against
// `// want "regexp"` comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract. Fixtures are
// loaded under the import path "fixture/<name>" and may import real
// packages of this module.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"filterjoin/internal/lint"
	"filterjoin/internal/lint/analysis"
	"filterjoin/internal/lint/loader"
)

// wantRe matches one expectation comment. The payload is a regexp in
// double quotes; escaped quotes are not supported (keep messages simple).
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads testdata/src/<fixture> and applies a, failing t on any
// mismatch between reported diagnostics and want comments.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join(testdataDir(t), "src", fixture)
	// The shared loader memoizes parse/typecheck results process-wide:
	// the real module packages a fixture imports (exec, expr, ...) and
	// their stdlib closure are loaded once for the whole test run, not
	// once per fixture.
	l, err := loader.NewShared(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(dir, "fixture/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", fixture, terr)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := l.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}

	diags, err := lint.Run(l.Fset, []*loader.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		if exp := match(wants, pos.Filename, pos.Line, d.Message); exp != nil {
			exp.hit = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, filepath.Base(pos.Filename), pos.Line, d.Message)
	}
	for _, exp := range wants {
		if !exp.hit {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, filepath.Base(exp.file), exp.line, exp.re)
		}
	}
}

func match(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// testdataDir locates internal/lint/testdata relative to this source
// file, so tests work regardless of the package under test's cwd.
func testdataDir(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal(fmt.Errorf("cannot locate analysistest source"))
	}
	return filepath.Join(filepath.Dir(self), "..", "testdata")
}
