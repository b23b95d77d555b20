package lint_test

import (
	"testing"

	"filterjoin/internal/lint"
	"filterjoin/internal/lint/analysistest"
	"filterjoin/internal/lint/loader"
)

// The analyzer runs over its golden fixture package: flagged lines
// carry `// want` comments, clean idioms carry none.
func TestLockepoch(t *testing.T) { analysistest.Run(t, lint.Lockepoch, "lockepoch") }

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

// TestAllNamesUnique: every analyzer is fully declared, and its name,
// which attributes each diagnostic, is unique.
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
