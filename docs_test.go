package filterjoin_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pointerDocs are the documents that describe the code as it is.
// CHANGES.md and ROADMAP.md name past and future things, and bench/ is
// frozen between benchmark changes, so none of them is checked.
var pointerDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}

// TestDocPointers keeps the docs' pointers true: every cited DESIGN
// section exists, every named test function exists, and every plan
// listing in README.md is a verbatim part of the golden file it names.
func TestDocPointers(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	var goFiles []string
	tests := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir // bench/ is frozen; dot directories hold no sources
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		goFiles = append(goFiles, path)
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readDoc(t, path), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sections", func(t *testing.T) {
		// A citation may wrap onto the next comment line.
		cite := regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*§(\d+)`)
		for _, path := range append(goFiles, pointerDocs...) {
			for _, m := range cite.FindAllStringSubmatch(readDoc(t, path), -1) {
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no heading", path, m[1])
				}
			}
		}
		// Inside DESIGN.md a bare §N is its own section; the paper's
		// sections are written "paper §N".
		for _, m := range regexp.MustCompile(`(?i)(paper )?§(\d+)(\.\d+)?`).FindAllStringSubmatch(design, -1) {
			if m[1] == "" && (m[3] != "" || !sections[m[2]]) {
				t.Errorf("DESIGN.md cites §%s%s, which has no heading (write \"paper §N\" for the paper's)", m[2], m[3])
			}
		}
	})

	t.Run("tests", func(t *testing.T) {
		name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
		for _, path := range append(pointerDocs, ".github/workflows/ci.yml") {
			for _, n := range name.FindAllString(readDoc(t, path), -1) {
				if !tests[n] {
					t.Errorf("%s names %s, which no _test.go file declares", path, n)
				}
			}
		}
	})

	t.Run("plans", func(t *testing.T) {
		// Text between fences alternates with fenced blocks; a block is a
		// plan listing when it carries plan annotations, and the text
		// before it must name the golden it was copied from.
		parts := strings.Split(readDoc(t, "README.md"), "```")
		golden := regexp.MustCompile(`testdata/[\w.]+\.golden`)
		planLine := regexp.MustCompile(`\((?:est )?rows=`)
		for i := 1; i < len(parts); i += 2 {
			block := parts[i][strings.Index(parts[i], "\n")+1:]
			if !planLine.MatchString(block) {
				continue
			}
			names := golden.FindAllString(parts[i-1], -1)
			if len(names) == 0 {
				t.Errorf("README.md code block %d is a plan listing but names no testdata golden before it", i/2+1)
				continue
			}
			if want := readDoc(t, names[len(names)-1]); !strings.Contains(want, block) {
				t.Errorf("README.md code block %d is a plan listing but not a verbatim part of %s", i/2+1, names[len(names)-1])
			}
		}
	})
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
