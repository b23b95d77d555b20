package lint_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"filterjoin/internal/lint"
	"filterjoin/internal/lint/analysistest"
	"filterjoin/internal/lint/loader"
)

// Each analyzer runs over its golden fixture package: flagged lines
// carry `// want` comments, clean idioms and //lint:ignore suppression
// carry none.

func TestExhaustive(t *testing.T) { analysistest.Run(t, lint.Exhaustive, "exhaustive") }
func TestFloatcmp(t *testing.T)   { analysistest.Run(t, lint.Floatcmp, "floatcmp") }
func TestLockepoch(t *testing.T)  { analysistest.Run(t, lint.Lockepoch, "lockepoch") }

// TestRealTreeClean is the suite's anchor: the shipped tree must be
// violation-free, so any regression an analyzer can see fails `go test`
// as well as the CI optlint step.
func TestRealTreeClean(t *testing.T) {
	l, err := loader.NewShared(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.Run(l.Fset, pkgs, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		t.Errorf("%s:%d:%d: %s (%s)", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
}

// TestAllNamesUnique guards the suppression syntax: directive names
// must match analyzer names exactly.
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely declared", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestSuppressionAudit holds every //lint:ignore in the tree — real
// packages and analyzer fixtures alike — to three rules: it names only
// existing analyzers, it carries a non-empty reason, and it is not
// stale (suppressing nothing: with suppression disabled, the named
// analyzer must report on the directive's line or the next one). A
// directive that fails any rule is either a typo that silently
// suppresses nothing or dead weight that hides future regressions.
func TestSuppressionAudit(t *testing.T) {
	l, err := loader.NewShared(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	for _, dir := range fixtures {
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatalf("abs: %v", err)
		}
		pkg, err := l.LoadDir(abs, "fixture/"+filepath.Base(dir))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}

	known := map[string]bool{}
	for _, a := range lint.All() {
		known[a.Name] = true
	}

	raw, err := lint.RunRaw(l.Fset, pkgs, lint.All())
	if err != nil {
		t.Fatalf("raw run: %v", err)
	}
	// hits[file][line][analyzer]: where each analyzer reported.
	hits := map[string]map[int]map[string]bool{}
	for _, d := range raw {
		pos := l.Fset.Position(d.Pos)
		if hits[pos.Filename] == nil {
			hits[pos.Filename] = map[int]map[string]bool{}
		}
		if hits[pos.Filename][pos.Line] == nil {
			hits[pos.Filename][pos.Line] = map[string]bool{}
		}
		hits[pos.Filename][pos.Line][d.Analyzer] = true
	}

	dirs := lint.DirectivesIn(l.Fset, pkgs)
	if len(dirs) == 0 {
		t.Fatal("no //lint:ignore directives found; the audit expected at least the fixture suppressions")
	}
	for _, d := range dirs {
		where := fmt.Sprintf("%s:%d", relPath(t, d.File), d.Line)
		if len(d.Names) == 0 {
			t.Errorf("%s: //lint:ignore names no analyzer", where)
			continue
		}
		if d.Reason == "" {
			t.Errorf("%s: //lint:ignore %s carries no reason; say why the invariant is waived", where, strings.Join(d.Names, ","))
		}
		for _, name := range d.Names {
			if !known[name] {
				t.Errorf("%s: //lint:ignore names unknown analyzer %q", where, name)
				continue
			}
			if !hits[d.File][d.Line][name] && !hits[d.File][d.Line+1][name] {
				t.Errorf("%s: stale //lint:ignore %s: the analyzer no longer reports here; delete the directive", where, name)
			}
		}
	}
}

func relPath(t *testing.T, file string) string {
	t.Helper()
	wd, err := filepath.Abs(".")
	if err != nil {
		return file
	}
	if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}
